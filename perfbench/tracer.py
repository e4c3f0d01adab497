"""Span tracer for the per-layer metrics, installed from outside ``posdg``.

Every wrapped call is one span. Spans nest through a stack, so a span's
self time is its duration minus the durations of the spans it directly
contains. Nothing under ``src/`` is changed: the tracer rebinds each
public function in every module that looks it up (the solver imports
names directly, ``from .physics import ...``) and patches class attributes
for methods.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span statistics: per name, calls, total and self seconds."""

    def __init__(self):
        self._stack = []          # one [child seconds] cell per open span
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.top_s = 0.0          # summed duration of outermost spans

    def wrap(self, name, fn, count=None):
        """Return fn timed as span ``name``.

        ``count(counts, args, kwargs, result)``, when given, adds work
        counters after the span closes.
        """
        clock = time.perf_counter
        stack, stats, counts = self._stack, self.stats, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - cell[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_s += dur
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def calls(self, name):
        return self.stats[name][0]

    def total_ms(self, name):
        return 1e3 * self.stats[name][1]

    def self_ms(self, name):
        return 1e3 * self.stats[name][2]


# -- work counters -------------------------------------------------------


def _count_pairs(counts, args, kwargs, out):
    rho_l, rho_r = args[0][0], args[1][0]
    counts["ec_fluxes_prims.pairs"] += int(
        np.prod(np.broadcast_shapes(np.shape(rho_l), np.shape(rho_r))))


def _count_states(key):
    def count(counts, args, kwargs, out):
        counts[key] += int(np.prod(np.shape(args[0])[:-1]))
    return count


def _count_solve_l(counts, args, kwargs, out):
    counts["solve_l.states"] += out.size
    counts["solve_l.binding"] += int(np.count_nonzero(out < 1.0))


def _count_limited(counts, args, kwargs, out):
    rep = out[1]
    if rep is not None:
        counts["limited.reports"] += 1
        counts["limited.share_sum"] += float(np.mean(rep.l_elem < 1.0))


def _count_bytes(counts, args, kwargs, out):
    counts["write_vtk.bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer):
    """Rebind the solver's public functions and methods to traced spans.

    Must run after ``import posdg.cli`` and before ``cli.setup``, so that
    ``ConvexLimiter`` picks up the traced ``ec_fluxes`` when it is built.
    """
    from posdg import (bc, cases, cli, limiter, mesh, physics, rhs_high,
                       rhs_low, sbp, timestepping)

    # (span name, home module, attribute, modules that look the name up)
    functions = [
        ("physics.ec_prims", physics, "ec_prims", [rhs_high], None),
        ("physics.ec_fluxes_prims", physics, "ec_fluxes_prims", [rhs_high],
         _count_pairs),
        # physics itself is rebound for ConvexLimiter's local import
        ("physics.ec_fluxes", physics, "ec_fluxes", [rhs_high, physics], None),
        ("physics.viscous_sigma", physics, "viscous_sigma", [rhs_high], None),
        ("physics.zhang_beta", physics, "zhang_beta", [rhs_low],
         _count_states("zhang_beta.states")),
        ("physics.davis_wavespeed", physics, "davis_wavespeed",
         [rhs_low, rhs_high], None),
        ("rhs_low.interface_flux_low", rhs_low, "interface_flux_low",
         [rhs_low, rhs_high], None),
        ("limiter.solve_l", limiter, "solve_l", [limiter], _count_solve_l),
        ("limiter.zhang_shu_limit", limiter, "zhang_shu_limit",
         [timestepping], None),
        ("limiter.generalized_bounds", limiter, "generalized_bounds",
         [timestepping], None),
        ("timestepping.ssp_rk3_step", timestepping, "ssp_rk3_step",
         [timestepping], None),
        ("timestepping.advance", timestepping, "advance", [cli], None),
        ("sbp.build_ops", sbp, "build_ops", [mesh], None),
        ("mesh.rect_mesh", mesh, "rect_mesh", [cases, cli], None),
        ("cli.setup", cli, "setup", [cli], None),
        ("cli.write_vtk", cli, "write_vtk", [cli], _count_bytes),
        ("cli.run", cli, "run", [cli], None),
    ]
    for name, home, attr, sites, count in functions:
        traced = tracer.wrap(name, getattr(home, attr), count)
        for module in sites:
            setattr(module, attr, traced)

    methods = [
        ("rhs_high.HighOrderRHS", rhs_high.HighOrderRHS, "__call__", None),
        ("rhs_high.LDGGradient", rhs_high.LDGGradient, "__call__", None),
        ("rhs_low.LowOrderRHS", rhs_low.LowOrderRHS, "__call__", None),
        ("rhs_low.LowOrderRHS.face_states", rhs_low.LowOrderRHS,
         "face_states", None),
        ("rhs_low.LowOrderRHS.pair_fluxes", rhs_low.LowOrderRHS,
         "pair_fluxes", None),
        ("limiter.ConvexLimiter", limiter.ConvexLimiter, "__call__", None),
        ("bc.BCSet.exterior_state", bc.BCSet, "exterior_state", None),
        ("timestepping.Stepper.init", timestepping.Stepper, "__init__", None),
        ("timestepping.Stepper.prepare", timestepping.Stepper, "prepare",
         None),
        ("timestepping.Stepper.apply", timestepping.Stepper, "apply",
         _count_limited),
    ]
    for name, owner, attr, count in methods:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def layer_metrics(tracer: Tracer, steps: int, import_ms: float,
                  wall_s: float) -> dict:
    """Per-layer metric values of one traced run, keyed by metric name.

    Plain names are per step; ``_total`` names and ``init_ms`` / ``import_ms``
    cover the whole run.
    """
    per = 1.0 / steps
    c = tracer.counts
    out = {}
    for name in ("rhs_high.HighOrderRHS", "rhs_high.LDGGradient",
                 "rhs_low.LowOrderRHS", "rhs_low.LowOrderRHS.face_states",
                 "rhs_low.interface_flux_low",
                 "rhs_low.LowOrderRHS.pair_fluxes", "physics.ec_fluxes",
                 "limiter.ConvexLimiter", "limiter.zhang_shu_limit",
                 "timestepping.advance", "timestepping.ssp_rk3_step",
                 "timestepping.Stepper.prepare",
                 "timestepping.Stepper.apply"):
        out[f"{name}.self_ms"] = tracer.self_ms(name) * per
    for name in ("physics.ec_fluxes_prims", "physics.ec_prims",
                 "physics.viscous_sigma", "physics.zhang_beta",
                 "physics.davis_wavespeed", "limiter.solve_l",
                 "limiter.generalized_bounds", "bc.BCSet.exterior_state"):
        out[f"{name}.ms"] = tracer.total_ms(name) * per
    for name in ("rhs_high.LDGGradient", "rhs_low.LowOrderRHS.pair_fluxes",
                 "limiter.ConvexLimiter", "limiter.zhang_shu_limit",
                 "bc.BCSet.exterior_state"):
        out[f"{name}.calls"] = tracer.calls(name) * per
    out["physics.ec_fluxes_prims.pairs"] = c["ec_fluxes_prims.pairs"] * per
    out["physics.zhang_beta.states"] = c["zhang_beta.states"] * per
    out["limiter.solve_l.states"] = c["solve_l.states"] * per
    out["limiter.solve_l.binding_share"] = (
        c["solve_l.binding"] / c["solve_l.states"]
        if c["solve_l.states"] else 0.0)
    out["limiter.limited_fraction"] = (
        c["limited.share_sum"] / c["limited.reports"]
        if c["limited.reports"] else 0.0)
    out["cli.write_vtk.ms_total"] = tracer.total_ms("cli.write_vtk")
    out["cli.write_vtk.bytes"] = c["write_vtk.bytes"]
    out["cli.run.self_ms_total"] = tracer.self_ms("cli.run")
    out["cli.run.callback.self_ms_total"] = tracer.self_ms("cli.run.callback")
    out["cli.import_ms"] = import_ms
    out["sbp.build_ops.ms_total"] = tracer.total_ms("sbp.build_ops")
    out["mesh.rect_mesh.self_ms_total"] = tracer.self_ms("mesh.rect_mesh")
    out["timestepping.Stepper.init_ms"] = tracer.total_ms(
        "timestepping.Stepper.init")
    covered_s = tracer.top_s + 1e-3 * import_ms
    out["trace.unattributed_frac"] = (wall_s - covered_s) / wall_s
    return out
