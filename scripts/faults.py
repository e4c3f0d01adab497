#!/usr/bin/env python3
"""Minor page faults per step and peak RSS of the three benchmark workloads.

Usage::

    python3 scripts/faults.py [--workload NAME ...]

Each workload of ``perfbench/child.py`` (101 steps) is marched by
``advance`` with output off, in a fresh process with ``POSDG_WORKERS=1``
and otherwise the caller's environment. The process's ``ru_minflt`` is read
at every step callback, and the script prints the mean number of minor
faults per step over steps 6-101: the first steps fault in the solver's
working set once, the later ones show what every step costs. A solver whose
stages reuse their buffers makes about 0 per step; one whose large
temporaries go back to the OS between stages makes hundreds to thousands.
Beside it goes the process's peak RSS (``ru_maxrss``) after the march: the
solver's own high-water mark, with no output written, to set against the
``peak_rss_mb`` of ``perfbench``, whose runs write their files too. The
"aligned" column counts the Stepper's workspace buffers (its block and
every kept array) that start on a 64-byte boundary after the march, out of
all of them: an allocation that escapes ``workspace.aligned_empty`` shows
there as a count short of the total.

Fault counts depend on the process environment (its size moves the heap
layout), so compare counts taken in the same environment.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FIRST, LAST = 6, 101


def workloads() -> dict:
    sys.path.insert(0, str(REPO / "perfbench"))
    from child import WORKLOADS

    return {name: dict(wl.config, snap_every=0)
            for name, wl in WORKLOADS.items()}


def measure(raw: dict) -> dict:
    """March one config; {"steps", "faults_per_step"} over FIRST..LAST, the
    peak RSS in MB ("peak_rss_mb") after the march, and the aligned and total
    counts of the workspace's buffers ("aligned", "buffers")."""
    import resource

    from posdg import cli
    from posdg.timestepping import advance
    from posdg.workspace import ALIGN

    _, _, stepper, u0, cfl, t_final = cli.setup(cli.make_config(raw))
    faults = {}

    def count(step, t, u, row, rep):
        faults[step] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    advance(stepper, u0, 0.0, t_final, cfl, callback=count, collect=False)
    last = min(LAST, max(faults))
    per_step = (faults[last] - faults[FIRST - 1]) / (last - FIRST + 1)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    buffers = [stepper.ws._block, *stepper.ws._kept.values()]
    aligned = sum(a.ctypes.data % ALIGN == 0 for a in buffers)
    return {"steps": max(faults), "faults_per_step": per_step,
            "peak_rss_mb": peak, "aligned": aligned, "buffers": len(buffers)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(measure(json.loads(argv[1]))))
        return 0
    known = workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(known),
                    help="workload to march (repeatable; default: all)")
    args = ap.parse_args(argv)
    env = dict(os.environ, POSDG_WORKERS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(REPO / "src"),
                                 os.environ.get("PYTHONPATH")])))
    print(f"{'workload':24s} {'steps':>5s}  {'peak RSS MB':>11s}  "
          f"{'aligned':>8s}  minor faults per step (steps {FIRST}-{LAST})")
    for name in args.workload or known:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             json.dumps(known[name])],
            env=env, cwd=REPO, check=True, capture_output=True, text=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        aligned = f"{res['aligned']}/{res['buffers']}"
        print(f"{name:24s} {res['steps']:5d}  {res['peak_rss_mb']:11.2f}  "
              f"{aligned:>8s}  {res['faults_per_step']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
