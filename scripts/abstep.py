#!/usr/bin/env python3
"""Step time of the working tree against a git revision, in one process.

Usage::

    python3 scripts/abstep.py REF [--workload NAME ...] [--repeats R]

Extracts REF's ``src/posdg`` with ``git archive`` into a temporary
directory as the package ``posdg_ref`` (every import inside ``posdg`` is
relative, so the copy imports as a package of its own), and imports it
next to the working tree's ``posdg``. For each workload of
``perfbench/child.py`` it builds both trees' steppers with their own
``cli.setup`` and marches both states side by side, alternating single
steps between the trees, R times over the workload's 101 steps, with fresh
steppers built in alternating order for each march. A step is one call of
the tree's own ``advance`` from the current state, which its callback stops
after the first step: so each tree steps as its ``advance`` does (dt
sizing, restarts, stage checks), and a timed step includes the diagnostics
row, as a step timed by ``perfbench/run.py`` does, plus ``advance``'s copy
and check of the state it starts from. Which tree goes first alternates
from one step to the next.

The host runs the same code at different speeds in blocks of a fraction
of a second to minutes. Two steps timed back to back run in the same
block, so the ratio of each pair cancels the block's speed, which runs in
separate processes do not. The script prints, per workload, the median of
the per-step ratios (tree / REF) pooled over all marches, with their
quartiles; the median ratio of each march on its own and the min-max
spread of those across the marches; the median step time of each tree; and
whether the two final states are bitwise equal. What stays with one march
(the memory placement of its steppers, other tenants of the host) moves a
march's median as a whole, so the spread of the march medians, not the
quartiles of the pooled steps, is the resolution of the pooled median.

Both trees run in one process and share its heap, so abstep cannot see
what a change costs in page faults: memory one tree frees, the other
reuses, and glibc's thresholds are set by whatever either tree allocated
last. A measured case: replacing the ``Workspace`` by fresh arrays read
1.07 / 1.03 / 1.00 here (vortex-tri / dmr / daru), but +36% / +18% / +37%
on ``step_ms_p50`` in ``perfbench/run.py``, whose runs are one tree per
process, with 1716 / 965 / 1017 minor faults per step. Judge any change
that moves allocations with ``perfbench/run.py`` and ``scripts/faults.py``,
not with this script.

BLAS threads are capped at one (``POSDG_WORKERS=1``) unless the caller's
environment sets them, and the garbage collector is off while steps run.
"""

from __future__ import annotations

import os

os.environ.setdefault("POSDG_WORKERS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ["POSDG_WORKERS"])

import argparse
import gc
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
REF_NAME = "posdg_ref"


def workloads() -> dict:
    sys.path.insert(0, str(REPO / "perfbench"))
    from child import WORKLOADS

    return {name: dict(wl.config, snap_every=0)
            for name, wl in WORKLOADS.items()}


def import_ref(ref: str, tmp: Path):
    """REF's ``posdg`` package, imported as ``posdg_ref``."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                          ref, "src/posdg"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(tmp, filter="data")
    (tmp / "src" / "posdg").rename(tmp / REF_NAME)
    sys.path.insert(0, str(tmp))
    return importlib.import_module(REF_NAME)


class _Stop(Exception):
    """Raised by the callback of ``advance`` after its first step."""


class March:
    """One tree's stepper and state on one workload."""

    def __init__(self, pkg, raw: dict):
        cli = importlib.import_module(pkg.__name__ + ".cli")
        self.ts = importlib.import_module(pkg.__name__ + ".timestepping")
        _, _, self.stepper, self.u, self.cfl, self.t_final = cli.setup(
            cli.make_config(raw))
        self.t, self.step = 0.0, 0

    def done(self) -> bool:
        return self.t >= self.t_final - 1e-14 * max(1.0, abs(self.t_final))

    def _stop(self, step, t, u, row, report):
        self.t, self.u = t, u
        raise _Stop

    def __call__(self) -> float:
        """March one step with ``advance``; its time in seconds."""
        start = time.perf_counter()
        try:
            self.ts.advance(self.stepper, self.u, self.t, self.t_final,
                            self.cfl, callback=self._stop, collect=False)
        except _Stop:
            pass
        elapsed = time.perf_counter() - start
        self.step += 1
        return elapsed


def compare(new_pkg, old_pkg, raw: dict, repeats: int) -> dict:
    ratios, t_new, t_old, marches, equal = [], [], [], [], True
    for r in range(repeats):
        # fresh steppers per repeat, built in alternating order, so that no
        # tree keeps one memory placement for the whole comparison
        if r % 2:
            old, new = March(old_pkg, raw), March(new_pkg, raw)
        else:
            new, old = March(new_pkg, raw), March(old_pkg, raw)
        start = len(ratios)
        gc.collect()
        gc.disable()
        try:
            while not (new.done() or old.done()):
                if new.step % 2:
                    a = new()
                    b = old()
                else:
                    b = old()
                    a = new()
                ratios.append(a / b)
                t_new.append(a)
                t_old.append(b)
        finally:
            gc.enable()
        marches.append(statistics.median(ratios[start:]))
        equal &= new.step == old.step and np.array_equal(new.u, old.u)
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    return {"steps": new.step, "ratio": med, "q1": q1, "q3": q3,
            "marches": marches,
            "ms_new": 1e3 * statistics.median(t_new),
            "ms_old": 1e3 * statistics.median(t_old), "equal": equal}


def main(argv=None) -> int:
    known = workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git revision to compare against")
    ap.add_argument("--workload", action="append", choices=sorted(known),
                    help="workload to march (repeatable; default: all)")
    ap.add_argument("--repeats", type=int, default=6,
                    help="marches over each workload's steps (default 6)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    import posdg

    with tempfile.TemporaryDirectory(prefix="posdg-abstep-") as tmp:
        ref = import_ref(args.ref, Path(tmp))
        print(f"per-step time ratio, working tree / {args.ref}: median "
              f"[quartiles] of all paired steps, min-max of the marches' "
              f"own medians; median step time of each")
        print(f"{'workload':24s} {'steps':>5s}  {'ratio':>6s}  "
              f"{'quartiles':>13s}  {'march min-max':>13s}  "
              f"{'ms tree':>8s}  {'ms ref':>8s}  final states")
        for name in args.workload or known:
            res = compare(posdg, ref, known[name], args.repeats)
            print(f"{name:24s} {res['steps']:5d}  {res['ratio']:6.3f}  "
                  f"[{res['q1']:.3f}, {res['q3']:.3f}]  "
                  f"[{min(res['marches']):.3f}, {max(res['marches']):.3f}]  "
                  f"{res['ms_new']:8.2f}  {res['ms_old']:8.2f}  "
                  f"{'equal' if res['equal'] else 'DIFFER'}")
            print(f"{'':24s} march medians: "
                  + " ".join(f"{m:.3f}" for m in res["marches"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
