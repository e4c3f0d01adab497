"""One benchmark repeat of ``posdg run`` in a fresh process.

Usage (normally started by ``run.py``)::

    python3 perfbench/child.py --workload NAME --outdir DIR --result FILE
        [--trace] [--setup-only] [--tiny]

The clock starts before ``import posdg.cli``. Two hooks, rebound in
``posdg.cli``, time the run without changing it: one on ``cli.setup``
(end of set-up, mesh and initial state) and one on ``cli.advance`` (march
time, the final state, and the entry and return of every step callback).
Untraced, the ``advance`` hook also times ``HostProbe`` before the first
step and after every step callback, outside the step times, and the march
figures are scaled to the host speed it reads (see ``HostProbe``).
``--trace`` adds the per-layer spans of ``tracer.py`` and drops the probe,
so that no span covers it. The repeat's figures and the failures of its
checks go to the ``--result`` JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

MIN_STEPS = 100          # p90 of the step times needs 10 samples beyond it
MASS_TOL = 1e-12         # relative mass drift allowed where the mode conserves
PROBE_REF_MS = 1.25      # HostProbe time that march figures are scaled to


@dataclass(frozen=True)
class Workload:
    config: dict           # posdg RunConfig fields
    tiny: dict             # overrides that shrink the run for the smoke test
    conserves: bool        # periodic mesh and a conservative mode


# Why each workload was chosen is in BENCHMARK.json and README.md. t_final
# sits a fraction of a step past the 100th step, so every run takes 101
# steps and the count does not move with roundoff.
WORKLOADS = {
    "vortex-tri-convex": Workload(
        config=dict(case="vortex", elem="tri", N=3, K=5, mode="convex",
                    t_final=0.265),
        tiny=dict(K=1, t_final=0.06),
        conserves=True),
    "dmr-quad-convex": Workload(
        config=dict(case="dmr", elem="quad", N=3, K=8, mode="convex",
                    t_final=0.0106, snap_every=10),
        tiny=dict(K=1, t_final=0.003, snap_every=2),
        conserves=False),
    "daru-quad-elementwise": Workload(
        config=dict(case="daru", elem="quad", N=3, K=8, mode="elementwise",
                    t_final=0.0403),
        tiny=dict(K=1, t_final=0.02),
        conserves=False),
}


@dataclass
class Record:
    """Timestamps and state captured by the hooks during one repeat."""

    setup_end: float = None
    mesh: object = None
    u0: object = None
    u: object = None
    march_start: float = None
    march_end: float = None
    marks: list = field(default_factory=list)   # (callback entry, return)
    probe_ms: list = field(default_factory=list)  # before step 1, after each


class HostProbe:
    """A fixed kernel, independent of posdg, that reads the host's speed.

    The shared host runs the same code at two speeds, in blocks of a
    fraction of a second to minutes, and the share of fast blocks moves
    from run to run. The probe's time next to a step reads the speed that
    step ran at, so dividing by it takes the host out of the step time.
    The kernel mixes what a solver stage does: small batched contractions,
    gathers and ufuncs over a few thousand nodes, and interpreted Python.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.random((64, 4, 4))
        self.nodes = rng.random((4, 4096)) + 1.0
        self.idx = rng.integers(0, 4096, 8192)

    def __call__(self) -> float:
        """Time of one pass, in ms."""
        np = self.np
        t0 = time.perf_counter()
        for _ in range(2):
            b = np.einsum("kij,kjl->kil", self.small, self.small)
            np.maximum(b, 0.5).sum(axis=1)
            g = self.nodes[:, self.idx]
            np.sqrt(g * g[::-1]).sum(axis=0)
        acc = 0
        for i in range(400):
            acc += i * i
        return 1e3 * (time.perf_counter() - t0)


def _hook(cli, rec: Record, tracer, probe_host: bool):
    clock = time.perf_counter
    setup, advance = cli.setup, cli.advance

    def setup_hook(cfg):
        out = setup(cfg)
        rec.setup_end = clock()
        rec.mesh, rec.u0 = out[1], out[3]
        return out

    def advance_hook(stepper, u0, t0, t_final, cfl, callback=None, **kw):
        if tracer is not None:
            callback = tracer.wrap("cli.run.callback", callback)
        probe = HostProbe() if probe_host else None

        def timed(*args):
            t_in = clock()
            try:
                return callback(*args)
            finally:
                if probe is not None:
                    rec.probe_ms.append(probe())
                rec.marks.append((t_in, clock()))

        if probe is not None:
            rec.probe_ms.append(probe())
        rec.march_start = clock()
        out = advance(stepper, u0, t0, t_final, cfl, callback=timed, **kw)
        rec.march_end = clock()
        rec.u = out[0]
        return out

    cli.setup = setup_hook
    cli.advance = advance_hook


def _read_diagnostics(path):
    """(data rows as dicts, final L1 error or None) from diagnostics.csv."""
    rows, l1, header = [], None, None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("# final_L1 = "):
                l1 = float(line.split("=", 1)[1])
            elif line.startswith("#") or not line:
                continue
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, map(float, line.split(",")))))
    return rows, l1


def _versions():
    import platform
    import os

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {v: os.environ.get(v) for v in
               ("POSDG_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def _check(wl, cfg, rec, status, diag_rows, l1, tiny):
    from posdg.cases import get_case
    from posdg.physics import internal_energy
    import numpy as np

    errors = []
    if status != 0:
        return [f"posdg run returned {status}"]
    u = rec.u
    steps = len(rec.marks)
    if not np.isfinite(u).all():
        errors.append("final state is not finite")
    else:
        rho_min, rhoe_min = u[..., 0].min(), internal_energy(u).min()
        if not rho_min > 0.0:
            errors.append(f"final min rho {rho_min:.3e} <= 0")
        if not rhoe_min > 0.0:
            errors.append(f"final min rhoe {rhoe_min:.3e} <= 0")
    if not tiny and steps < MIN_STEPS:
        errors.append(f"{steps} steps, fewer than {MIN_STEPS}")
    if len(diag_rows) != steps:
        errors.append(f"diagnostics.csv has {len(diag_rows)} rows for "
                      f"{steps} steps")
    elif abs(diag_rows[-1]["t"] - cfg.t_final) > 1e-12 * cfg.t_final:
        errors.append(f"run ended at t={diag_rows[-1]['t']!r}, "
                      f"not {cfg.t_final!r}")
    if get_case(cfg.case).exact is not None and not (
            l1 is not None and math.isfinite(l1)):
        errors.append("diagnostics.csv lacks a finite final_L1")
    drift = _mass_drift(rec)
    if wl.conserves and not drift <= MASS_TOL:
        errors.append(f"mass drift {drift:.3e} exceeds {MASS_TOL:g}")
    return errors


def _mass_drift(rec):
    m0 = float((rec.mesh.mass * rec.u0[..., 0]).sum())
    m1 = float((rec.mesh.mass * rec.u[..., 0]).sum())
    return abs(m1 - m0) / abs(m0)


def _timings(rec, t0, t_end):
    """Set-up, wall and step times; march figures scaled by the probe.

    Without probe readings (traced runs) the figures are wall-clock. With
    them, step i is scaled by PROBE_REF_MS over the mean of the probes just
    before and just after it, and ``wall_s`` by PROBE_REF_MS over the mean
    probe; the probes' own time is taken out of ``wall_s`` first.
    """
    steps = len(rec.marks)
    raw_ms, prev = [], rec.march_start
    for t_in, t_out in rec.marks:
        raw_ms.append(1e3 * (t_in - prev))
        prev = t_out
    wall_raw = t_end - t0 - 1e-3 * sum(rec.probe_ms)
    if rec.probe_ms:
        p = rec.probe_ms
        step_ms = [t * 2.0 * PROBE_REF_MS / (p[i] + p[i + 1])
                   for i, t in enumerate(raw_ms)]
        wall_s = wall_raw * PROBE_REF_MS / statistics.fmean(p)
    else:
        step_ms, wall_s = raw_ms, wall_raw
    dofs = rec.u0.shape[0] * rec.u0.shape[1]
    return {
        "setup_s": rec.setup_end - t0,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw,
        "steps": steps,
        "step_ms": step_ms,
        "step_ms_raw": raw_ms,
        "probe_ms": rec.probe_ms,
        "dofs": dofs,
        "us_per_dof_stage": 1e3 * sum(step_ms) / (steps * 3 * dofs),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import posdg.cli as cli
    t_import = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer, install, layer_metrics
        tracer = Tracer()
        install(tracer)
    rec = Record()
    _hook(cli, rec, tracer, probe_host=not args.trace)

    raw = dict(wl.config, outdir=args.outdir)
    if args.tiny:
        raw.update(wl.tiny)
    cfg = cli.make_config(raw)
    result = {}
    if args.setup_only:
        cli.setup(cfg)
        result["setup_s"] = rec.setup_end - t0
    else:
        status = cli.run(cfg)
        t_end = time.perf_counter()
        diag_rows, l1 = _read_diagnostics(f"{args.outdir}/diagnostics.csv")
        errors = _check(wl, cfg, rec, status, diag_rows, l1, args.tiny)
        if status == 0:
            result.update(_timings(rec, t0, t_end))
            result["l1_error"] = l1
            result["mass_drift_rel"] = _mass_drift(rec)
            if tracer is not None:
                result["layers"] = layer_metrics(
                    tracer, len(rec.marks), 1e3 * (t_import - t0), t_end - t0)
        result["errors"] = errors
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["versions"] = _versions()
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
