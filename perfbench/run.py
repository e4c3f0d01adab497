"""Benchmark of ``posdg run``: end-to-end metrics, or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload vortex-tri-convex --seed 1 \\
        --seconds 40 --trace 0

Every repeat runs in a fresh child process (``child.py``), one at a time,
with ``POSDG_WORKERS=1`` and every BLAS thread count set to 1. Outputs go to
a temporary directory under ``.perfbench_tmp/`` in the checkout, removed at
the end.

``--trace 0`` first times set-up alone in a few children, then repeats the
whole run while another repeat is expected to end within ``--seconds``
(always at least once), and reports the end-to-end metrics, with the
march figures scaled to the host's speed (see ``child.HostProbe``). The
wall-clock figures are in the ``info`` line. ``--trace 1``
repeats pairs of one untraced and one traced run in the same way, checks
that both write the same ``diagnostics.csv`` byte for byte, and reports
the per-layer metrics of the traced ones.

The inputs are the cases' closed-form initial states, so ``--seed`` is
recorded but changes nothing. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the host, versions, sample counts and the accuracy and
conservation figures. A repeat fails when its child exits non-zero or one
of its checks fails (see ``child.py``); failed repeats count in ``failed``
and their figures are left out of the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import WORKLOADS

SETUP_PROBES = 5        # set-up-only children per untraced run
DEADLINE_S = 170.0      # a run must end within 180 s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _env():
    env = dict(os.environ)
    for var in ("POSDG_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Starts child repeats under one temporary directory and a deadline."""

    def __init__(self, workload, tmp: Path, tiny: bool):
        self.workload = workload
        self.tmp = tmp
        self.tiny = tiny
        self.env = _env()
        self.start = time.perf_counter()
        self.attempted = 0
        self.errors = []
        self.versions = None

    def elapsed(self):
        return time.perf_counter() - self.start

    def fits(self, durations, seconds):
        """Whether one more repeat of the median past duration ends in time."""
        return self.elapsed() + statistics.median(durations) <= seconds

    def repeat(self, *flags):
        """Run one child; return its result dict, or None when it failed."""
        self.attempted += 1
        d = self.tmp / f"r{self.attempted:03d}"
        d.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--outdir", str(d / "out"),
               "--result", str(d / "result.json"), *flags]
        if self.tiny:
            cmd.append("--tiny")
        timeout = max(DEADLINE_S - self.elapsed(), 1.0)
        with open(d / "log.txt", "w") as log:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                return self._fail(d, f"timed out after {timeout:.0f} s")
        if proc.returncode != 0:
            return self._fail(d, f"exit status {proc.returncode}")
        res = json.loads((d / "result.json").read_text())
        self.versions = res["versions"]
        if res.get("errors"):
            return self._fail(d, "; ".join(res["errors"]))
        res["outdir"] = d / "out"
        return res

    def _fail(self, d, why):
        tail = (d / "log.txt").read_text().strip().splitlines()[-5:]
        self.errors.append(f"repeat {self.attempted}: {why}")
        print(f"repeat {self.attempted} failed: {why}", *tail, sep="\n",
              file=sys.stderr)
        return None


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def untraced(runner: Runner, seconds):
    """End-to-end metrics from set-up probes and whole-run repeats."""
    setups, runs = [], []
    for _ in range(SETUP_PROBES):
        res = runner.repeat("--setup-only")
        if res is not None:
            setups.append(res["setup_s"])
    durations = []
    while True:
        begin = runner.elapsed()
        res = runner.repeat()
        durations.append(runner.elapsed() - begin)
        if res is not None:
            runs.append(res)
        if not runner.fits(durations, seconds):
            break
    if not runs:
        return None, {}
    steps_ms = [x for r in runs for x in r["step_ms"]]
    med = lambda key: statistics.median(r[key] for r in runs)
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
        "wall_s": med("wall_s"),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p90": _quantile(steps_ms, 90),
        "us_per_dof_stage": med("us_per_dof_stage"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    raw_ms = [x for r in runs for x in r["step_ms_raw"]]
    info = {"setup_samples": len(setups) + len(runs),
            "wall_s_runs": [r["wall_s"] for r in runs],
            "wall_clock_s_runs": [r["wall_raw_s"] for r in runs],
            "step_samples": len(steps_ms),
            "step_clock_ms_p50": statistics.median(raw_ms),
            "probe_ms_p50": statistics.median(
                x for r in runs for x in r["probe_ms"]),
            "steps_per_run": runs[0]["steps"], "dofs": runs[0]["dofs"],
            "l1_error": runs[0]["l1_error"],
            "mass_drift_rel": med("mass_drift_rel")}
    return metrics, info


def traced(runner: Runner, seconds):
    """Per-layer metrics from pairs of an untraced and a traced repeat."""
    layers, durations = [], []
    while True:
        begin = runner.elapsed()
        plain = runner.repeat()
        res = runner.repeat("--trace")
        if plain is not None and res is not None:
            if ((plain["outdir"] / "diagnostics.csv").read_bytes()
                    == (res["outdir"] / "diagnostics.csv").read_bytes()):
                row = dict(res["layers"])
                row["trace.overhead_frac"] = (
                    res["wall_raw_s"] / plain["wall_raw_s"] - 1.0)
                # no exact solution reads as 0
                row["solution.l1_error"] = res["l1_error"] or 0.0
                row["solution.mass_drift_rel"] = res["mass_drift_rel"]
                layers.append(row)
            else:
                runner.errors.append("traced diagnostics.csv differs from "
                                     "the untraced one")
        durations.append(runner.elapsed() - begin)
        if not runner.fits(durations, seconds):
            break
    if not layers:
        return None, {}
    metrics = {name: statistics.median(r[name] for r in layers)
               for name in layers[0]}
    return metrics, {"traced_runs": len(layers)}


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink each run to a tiny mesh (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "posdg" / "cli.py").is_file():
        print(f"no posdg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(args.workload, tmp, args.tiny)
        measure = traced if args.trace else untraced
        metrics, info = measure(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    if metrics is None:
        print("no repeat passed its checks", file=sys.stderr)
        return 1

    failed = len(runner.errors)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                failed_fraction=failed / runner.attempted,
                errors=runner.errors, host=platform.node(),
                nproc=os.cpu_count(), commit=_git_commit(),
                versions=runner.versions)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
