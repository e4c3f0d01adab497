#!/usr/bin/env python3
"""Final-state parity between the working tree and a git revision.

Usage::

    python3 scripts/parity.py REF

Extracts REF with ``git archive`` into a temporary directory, runs the same
configurations with the ``posdg`` sources of each tree (each tree in its own
process, with ``POSDG_WORKERS=1``) and prints, per configuration, the
maximum relative deviation of the final state,

    max over variables v of  max |u_v - u_v^REF| / max |u_v^REF|.

The configurations are the three benchmark workloads of
``perfbench/child.py`` (101 steps each) and the 1D LeBlanc shock tube with
modes ``none``, ``low-only``, ``convex`` and ``elementwise``; the limiters
bind hardest on that near-vacuum tube. Unlimited high order cannot survive
LeBlanc, so a run that aborts is compared at its last completed step, and a
different step count or abort message counts as a mismatch. The exit status is 0 when
every deviation is exactly 0, else 1. Takes about a minute.
"""

from __future__ import annotations

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


def configs() -> dict:
    sys.path.insert(0, str(REPO / "perfbench"))
    from child import WORKLOADS

    out = {name: dict(wl.config, snap_every=0)
           for name, wl in WORKLOADS.items()}
    for mode in ("none", "low-only", "convex", "elementwise"):
        out[f"leblanc-line-{mode}"] = dict(LEBLANC, mode=mode)
    return out


def collect(config_file: str, out_file: str) -> None:
    """Run every configuration with the importable posdg; save final states."""
    from posdg import cli
    from posdg.timestepping import advance

    states, meta = {}, {}
    for name, raw in json.loads(Path(config_file).read_text()).items():
        _, _, stepper, u0, cfl, t_final = cli.setup(cli.make_config(raw))
        last = {"u": u0, "steps": 0}

        def keep(step, t, u, row, rep):
            last.update(u=u, steps=step)

        abort = ""
        try:
            advance(stepper, u0, 0.0, t_final, cfl, callback=keep,
                    collect=False)
        except (FloatingPointError, RuntimeError) as exc:
            abort = str(exc)
        states[name] = last["u"]
        meta[name] = {"steps": last["steps"], "abort": abort}
    np.savez(out_file, **states)
    Path(out_file + ".json").write_text(json.dumps(meta))


def run_tree(src: Path, config_file: Path, out_file: Path, cwd: Path):
    env = dict(os.environ, PYTHONPATH=str(src), POSDG_WORKERS="1")
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--collect", str(config_file), str(out_file)],
                   env=env, cwd=cwd, check=True)
    with np.load(out_file) as data:
        states = {k: data[k] for k in data.files}
    meta = json.loads(Path(str(out_file) + ".json").read_text())
    return states, meta


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
        new, new_meta = run_tree(REPO / "src", config_file,
                                 tmp / "new.npz", tmp)
        old, old_meta = run_tree(tmp / "ref" / "src", config_file,
                                 tmp / "ref.npz", tmp)

    ok = True
    print(f"{'config':28s} {'steps':>6s}  max relative deviation from {ref}")
    for name in new:
        dev = deviation(new[name], old[name])
        note = ""
        if new_meta[name] != old_meta[name]:
            note = (f"  MISMATCH: {new_meta[name]} vs {ref} "
                    f"{old_meta[name]}")
        elif new_meta[name]["abort"]:
            note = f"  (both aborted: {new_meta[name]['abort']})"
        ok &= dev == 0.0 and not note.startswith("  MISMATCH")
        print(f"{name:28s} {new_meta[name]['steps']:6d}  {dev:.3g}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
