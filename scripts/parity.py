#!/usr/bin/env python3
"""Final-state and output parity between the working tree and a git revision.

Usage::

    python3 scripts/parity.py REF

Extracts REF with ``git archive`` into a temporary directory, runs the same
configurations with the ``posdg`` sources of each tree (each tree in its own
process, with ``POSDG_WORKERS=1`` and every BLAS thread count set to 1) and
prints, per configuration, the maximum relative deviation of the final
state,

    max over variables v of  max |u_v - u_v^REF| / max |u_v^REF|.

The configurations are the three benchmark workloads of
``perfbench/child.py`` (101 steps each), the 1D LeBlanc shock tube with
modes ``none``, ``low-only``, ``convex`` and ``elementwise`` (the limiters
bind hardest on that near-vacuum tube), the 1D viscous shock with modes
``none`` and ``elementwise``: LDG with Dirichlet boundaries, and the Mach
20 viscous shock in mode ``elementwise``, whose first limited stage states
restart 15 of its 17 steps from their own positivity bound. The 1D
sine-shock (Shu-Osher) tube in mode ``elementwise`` has a Dirichlet inflow
and an outflow boundary, and a short double Mach reflection in mode
``convex`` with ``wall_riemann = false`` has mirror walls and the moving
Dirichlet boundary; with the wall-Riemann walls of the dmr workload and
the no-slip walls of Daru-Tenaud, every kind of boundary condition is
marched. Two tri
configurations cover the wavespeed ends that tri elements do not share
between pairs and face slots, with viscous wavespeeds and boundary ghost
states: Daru-Tenaud in mode ``convex`` (no-slip and wall boundaries) and
the 2D viscous shock in mode ``none`` (Dirichlet boundaries). Mode
``none`` is the blend with every l = 1: on smooth flow it marches the
states of a limited mode that limits nowhere, and it cannot survive
LeBlanc, so a run that aborts is compared at its last completed step, and
a different step count or abort message counts as a mismatch.

It then runs ``posdg run`` (``cli.run``) on the three benchmark workloads in
each tree, with their own ``snap_every``, so that dmr writes its VTK
snapshots, and compares every output file byte for byte: the CSV files
(``diagnostics.csv``, ``limiter.csv``, ``final.csv``) and the VTK files
(``final.vtk`` and each ``snap_*.vtk``).

When a numeric CSV output (``diagnostics.csv``, ``limiter.csv``,
``final.csv``) differs, the largest relative difference of each of its
columns is printed below the file list, max |x - x^REF| / max |x^REF| over
the column's rows, with the largest absolute difference max |x - x^REF|
beside it, so a change that only reorders floating-point sums can show
that its outputs move at the ulp level. A column whose values are
themselves roundoff (a total that stays near zero, such as the
transverse momentum of a symmetric flow) has a relative difference of
order 1 under such a change; its absolute difference shows the scale.

For each march configuration whose deviation is not 0, REF runs once more
from the initial state nudged up by one ulp (``np.nextafter(u0, inf)``), and
that run's deviation from REF is printed next to the configuration's: a
measured yardstick for changes that reorder floating-point operations.
For the configurations whose case has an exact solution, the relative L1
error of each tree's final state (``cases.error_norms``) is printed too, so
a change shows what it does to accuracy as well as to parity.

The exit status is 0 when every deviation is exactly 0 and every output
file is identical, else 1. Takes about two minutes.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]

LEBLANC = dict(case="leblanc", N=3, K=200, cfl=0.1, t_final=0.01)
VISCOUS_SHOCK = dict(case="viscous-shock", N=3, K=40, t_final=0.05)
VISCOUS_SHOCK_M20 = dict(case="viscous-shock-m20", N=3, K=40, t_final=0.003,
                         mode="elementwise")
DARU_TRI = dict(case="daru", elem="tri", N=3, K=4, t_final=0.01,
                mode="convex")
SINE_SHOCK = dict(case="sine-shock", N=3, K=100, t_final=0.1,
                  mode="elementwise")
DMR_MIRROR = dict(case="dmr", elem="quad", N=3, K=4, t_final=0.01,
                  mode="convex", wall_riemann=False)
VISCOUS_SHOCK_2D_TRI = dict(case="viscous-shock-2d", elem="tri", N=3, K=4,
                            t_final=0.02, mode="none")


def configs() -> dict:
    """{"march": configs compared by final state, "run": `posdg run` configs
    compared by their output files}."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from child import WORKLOADS

    march = {name: dict(wl.config, snap_every=0)
             for name, wl in WORKLOADS.items()}
    for mode in ("none", "low-only", "convex", "elementwise"):
        march[f"leblanc-line-{mode}"] = dict(LEBLANC, mode=mode)
    for mode in ("none", "elementwise"):
        march[f"viscous-shock-line-{mode}"] = dict(VISCOUS_SHOCK, mode=mode)
    march["mach20-shock-line-elementwise"] = VISCOUS_SHOCK_M20
    march["sine-shock-line-elementwise"] = SINE_SHOCK
    march["dmr-quad-convex-mirror"] = DMR_MIRROR
    march["daru-tri-convex"] = DARU_TRI
    march["viscous-shock-2d-tri-none"] = VISCOUS_SHOCK_2D_TRI
    runs = {name: dict(wl.config) for name, wl in WORKLOADS.items()}
    return {"march": march, "run": runs}


def collect(config_file: str, out_file: str) -> None:
    """Run every configuration with the importable posdg; save final states,
    and the outputs of each `posdg run` under ``out_file + ".runs"``. With
    ``"nudge"`` set in the file, the marches start one ulp above u0."""
    from posdg import cli
    from posdg.cases import error_norms
    from posdg.timestepping import advance

    cfgs = json.loads(Path(config_file).read_text())
    states, meta, l1 = {}, {}, {}
    for name, raw in cfgs["march"].items():
        case, mesh, stepper, u0, cfl, t_final = cli.setup(
            cli.make_config(raw))
        if cfgs.get("nudge"):
            u0 = np.nextafter(u0, np.inf)
        last = {"u": u0, "steps": 0, "t": 0.0}

        def keep(step, t, u, row, rep):
            last.update(u=u, steps=step, t=t)

        abort = ""
        try:
            advance(stepper, u0, 0.0, t_final, cfl, callback=keep,
                    collect=False)
        except (FloatingPointError, RuntimeError) as exc:
            abort = str(exc)
        states[name] = last["u"]
        meta[name] = {"steps": last["steps"], "abort": abort}
        if case.exact is not None:
            l1[name] = error_norms(last["u"], mesh, case, t=last["t"], p=1)
    np.savez(out_file, **states)
    Path(out_file + ".json").write_text(json.dumps({"meta": meta, "l1": l1}))

    for name, raw in cfgs["run"].items():
        cfg = cli.make_config(dict(raw, outdir=f"{out_file}.runs/{name}"))
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.run(cfg)
        if status != 0:
            raise SystemExit(f"posdg run {name} returned {status}")


def run_tree(src: Path, config_file: Path, out_file: Path, cwd: Path):
    # the BLAS thread counts too: the child imports numpy before posdg.cli
    # could seed them from POSDG_WORKERS
    env = dict(os.environ, PYTHONPATH=str(src), POSDG_WORKERS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--collect", str(config_file), str(out_file)],
                   env=env, cwd=cwd, check=True)
    with np.load(out_file) as data:
        states = {k: data[k] for k in data.files}
    run = json.loads(Path(str(out_file) + ".json").read_text())
    return states, run["meta"], run["l1"]


def compare_outputs(new: Path, old: Path) -> tuple:
    """(number of files, names of files missing on one side or differing
    in their bytes)."""
    names = sorted({p.name for p in new.iterdir()}
                   | {p.name for p in old.iterdir()})
    _, differ, missing = filecmp.cmpfiles(new, old, names, shallow=False)
    return len(names), sorted(differ + missing)


CSV_OUTPUTS = ("diagnostics.csv", "limiter.csv", "final.csv")


def read_csv(path: Path):
    """(column names, rows as float arrays) of a posdg CSV file; comment
    lines (``#``) are skipped."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return (lines[0].split(","),
            np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]))


def column_differences(new: Path, old: Path) -> str:
    """The largest relative and absolute difference per column of two CSV
    files, as "name relative (abs absolute)" entries, or why they cannot be
    compared."""
    (cols, a), (cols_ref, b) = read_csv(new), read_csv(old)
    if cols != cols_ref or a.shape != b.shape:
        return (f"columns or row counts differ ({len(cols)} x {len(a)} "
                f"against {len(cols_ref)} x {len(b)})")
    if not len(a):
        return "no rows"
    diff = np.abs(a - b).max(axis=0)
    rel = diff / np.maximum(np.abs(b).max(axis=0), 1e-300)
    return ", ".join(f"{c} {r:.3g} (abs {d:.3g})"
                     for c, r, d in zip(cols, rel, diff))


def deviation(u, ref) -> float:
    if u.shape != ref.shape:
        return float("inf")
    scale = np.abs(ref).reshape(-1, ref.shape[-1]).max(axis=0)
    diff = np.abs(u - ref).reshape(-1, ref.shape[-1]).max(axis=0)
    return float((diff / np.maximum(scale, 1e-300)).max())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--collect"]:
        collect(*argv[1:3])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ref = argv[0]
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                          ref], check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="posdg-parity-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tmp / "ref", filter="data")
        config_file = tmp / "configs.json"
        config_file.write_text(json.dumps(configs()))
        new, new_meta, new_l1 = run_tree(REPO / "src", config_file,
                                         tmp / "new.npz", tmp)
        old, old_meta, old_l1 = run_tree(tmp / "ref" / "src", config_file,
                                         tmp / "ref.npz", tmp)
        outputs = {}
        for name in configs()["run"]:
            dirs = (tmp / "new.npz.runs" / name, tmp / "ref.npz.runs" / name)
            n_files, bad = compare_outputs(*dirs)
            columns = {f: column_differences(dirs[0] / f, dirs[1] / f)
                       for f in CSV_OUTPUTS
                       if f in bad and all((d / f).exists() for d in dirs)}
            outputs[name] = (n_files, bad, columns)
        devs = {name: deviation(new[name], old[name]) for name in new}
        moved = {name: cfg for name, cfg in configs()["march"].items()
                 if devs[name] != 0.0}
        ulp = {}
        if moved:
            nudge_file = tmp / "nudged.json"
            nudge_file.write_text(json.dumps(
                {"march": moved, "run": {}, "nudge": True}))
            nudged = run_tree(tmp / "ref" / "src", nudge_file,
                              tmp / "nudged.npz", tmp)[0]
            ulp = {name: deviation(nudged[name], old[name])
                   for name in moved}

    ok = True
    print(f"max relative deviation of the final state from {ref}, and of "
          f"{ref} from u0 + 1 ulp; relative L1 error of both final states "
          f"where the case has an exact solution")
    print(f"{'config':30s} {'steps':>6s}  {'deviation':>9s}  "
          f"{'1-ulp u0':>9s}  {'L1':>12s}  {'L1 ' + ref:>12s}")
    for name in new:
        dev = devs[name]
        note = ""
        if new_meta[name] != old_meta[name]:
            note = (f"  MISMATCH: {new_meta[name]} vs {ref} "
                    f"{old_meta[name]}")
        elif new_meta[name]["abort"]:
            note = f"  (both aborted: {new_meta[name]['abort']})"
        ok &= dev == 0.0 and not note.startswith("  MISMATCH")
        yard = f"{ulp[name]:9.3g}" if name in ulp else f"{'-':>9s}"
        errs = "  ".join(f"{e[name]:12.6e}" if name in e else f"{'-':>12s}"
                         for e in (new_l1, old_l1))
        print(f"{name:30s} {new_meta[name]['steps']:6d}  {dev:9.3g}  "
              f"{yard}  {errs}{note}")
    print(f"\n{'posdg run':30s} {'files':>6s}  output files against {ref}")
    for name, (n_files, bad, columns) in outputs.items():
        ok &= not bad
        verdict = f"DIFFER: {', '.join(bad)}" if bad else "all identical"
        print(f"{name:30s} {n_files:6d}  {verdict}")
        for fname, text in columns.items():
            print(f"    {fname}: {text}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
