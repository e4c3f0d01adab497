"""SSP-RK3 time integration built from positivity-limited Euler stages.

Each Runge-Kutta stage is one forward-Euler update of the blended scheme;
the three-stage convex combination (Shu-Osher form) therefore inherits the
admissibility guarantee of the stages whenever dt satisfies the positivity
bound dt <= cfl * min_i m_i / (2 lambda_i) with cfl <= 1. The stages hold
the state component first, (nvar, Np, K); :func:`advance` takes, returns
and hands its callback states with the variable index last.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bc import BCSet
from .limiter import (
    ConvexLimiter,
    LimiterReport,
    antidiffusive_fluxes,
    generalized_bounds,
    minimal_bounds,
    shock_indicator,
    zhang_shu_limit,
)
from .mesh import Mesh
from .physics import GasParams, entropy, internal_energy, is_admissible
from .rhs_high import HighOrderRHS, LDGGradient
from .rhs_low import LowOrderRHS
from .workspace import Workspace

__all__ = ["Stepper", "advance", "StepDiagnostics", "StageBoundError"]

log = logging.getLogger("posdg")

MODES = ("none", "elementwise", "convex", "low-only")

# restarts of one step from a stage's positivity bound before advance gives up
MAX_RETRIES = 8
# advance logs a progress line every LOG_EVERY steps and gives up after
# MAX_STEPS
LOG_EVERY = 200
MAX_STEPS = 10 ** 7

# names of the conserved-variable integrals per dimension, as written to
# diagnostics.csv
TOTALS = {1: ("mass", "mom_x", "energy"),
          2: ("mass", "mom_x", "mom_y", "energy")}


class Stepper:
    """Limited forward-Euler stage operator plus the positivity CFL bound.

    mode selects the update: "low-only" (sparse scheme), "none" (unlimited
    high-order with entropy-stable interface dissipation), "elementwise"
    (Zhang-Shu style blend), or "convex" (pairwise FCT limiting). Both
    limited modes give the high-order update the low-order interface flux,
    so it differs from the low-order update only by the scattered pair
    differences dF = F^H - F^L, and both limiters blend through dF. Every
    column of the mesh's ``scatter`` sums to zero, so the blend conserves by
    construction. zeta > 0 selects the relaxed bounds; zeta = 0 the minimal
    ones.

    The Stepper owns one :class:`~posdg.workspace.Workspace`: the low- and
    high-order pair fluxes, and with them dF, are its kept arrays, and the
    pair-flux and limiter kernels take their temporaries from it, so the
    stages of a run reuse the same memory.
    """

    def __init__(self, mesh: Mesh, gas: GasParams, bcs: BCSet,
                 mode: str = "elementwise", zeta: float = 0.1,
                 shock_capture: bool = False):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mesh = mesh
        self.gas = gas
        self.mode = mode
        self.zeta = zeta
        self.shock_capture = shock_capture
        self.low = LowOrderRHS(mesh, gas, bcs)
        self.grad = LDGGradient(mesh, gas) if gas.viscous else None
        self.high = HighOrderRHS(mesh, gas) if mode != "low-only" else None
        self.convex = ConvexLimiter(mesh) if mode == "convex" else None
        self.ws = Workspace()
        self._minv = 1.0 / mesh.mass.T

    def prepare(self, u, t):
        """Residuals and wavespeeds of a stage state; dt-independent.

        The face states ``faces`` = (uf, uP, sigf, sigP, nrm) are gathered
        and the boundary conditions evaluated once per stage: the LDG
        gradient and the interface flux of whichever residual is formed
        read them. Mode "none" forms only the high-order residual RH and
        keeps ``faces`` in ``prep``, because advance sizes its dt from them
        with the low-order wavespeeds. The other modes evaluate the per-end
        wavespeeds once (:meth:`LowOrderRHS.wavespeeds`), and from them and
        the pair fluxes form the low-order residual RL and its nodal
        wavespeeds lam; the limited modes add the pair differences
        dF = F^H - F^L, one (nvar, npairs, K) array over the mesh's pair
        graph, with the low-order pair fluxes evaluated once for both.
        ``u``, the LDG viscous fluxes ``sig`` (None for inviscid gases) and
        the residuals are (nvar, Np, K), the layout every kernel reads.

        A ``prep`` is valid until the next ``prepare`` on the same Stepper:
        its arrays but lam and RH live in the Stepper's workspace, and every
        call overwrites them.
        """
        ws = self.ws
        uf, uP, nrm = self.low.face_states(u, t, ws)
        sig = None if self.grad is None else self.grad(u, uP, ws)[2]
        faces = (uf, uP, *self.low.face_sigmas(sig, ws), nrm)
        prep = {"RL": None, "lam": None, "RH": None, "dF": None, "sig": sig,
                "faces": None}
        if self.mode == "none":
            prep["RH"] = self.high(u, faces, sig, ws)
            prep["faces"] = faces
            return prep
        w = self.low.wavespeeds(u, faces, sig, ws)
        low_pairs = self.low.pair_fluxes(u, w, sig, ws)
        prep["RL"], prep["lam"] = self.low(u, faces, w, low_pairs, ws)
        if self.high is not None:
            prep["dF"] = antidiffusive_fluxes(
                self.mesh, self.high.pair_fluxes(u, sig, ws), low_pairs)
        return prep

    def dt_bound(self, prep):
        """Largest admissibility-preserving Euler step for the prepared state."""
        if prep["lam"] is None:
            # unlimited mode has no positivity bound; advance sizes dt from
            # the low-order scheme's as a surrogate
            return None
        return float((self.mesh.mass.T / (2.0 * prep["lam"])).min())

    def apply(self, u, t, dt, prep):
        """One limited forward-Euler update. Returns (u_new, report)."""
        mesh = self.mesh
        # u + dt R / m, in one new array
        uL = np.multiply(dt, prep["RH" if self.mode == "none" else "RL"])
        uL *= self._minv
        uL += u
        if self.mode in ("none", "low-only"):
            return uL, None

        bounds = (generalized_bounds(uL, self.zeta) if self.zeta > 0
                  else minimal_bounds(uL))
        cap = None
        if self.shock_capture:
            cap = shock_indicator(u, mesh.ops, self.gas)
        if self.mode == "elementwise":
            return zhang_shu_limit(uL, prep["dF"], dt, mesh, bounds, cap=cap,
                                   ws=self.ws)
        return self.convex(uL, prep["dF"], dt, bounds, cap=cap, ws=self.ws)


@dataclass
class StepDiagnostics:
    """Per-step scalar diagnostics collected by advance()."""

    step: int
    t: float
    dt: float
    min_rho: float
    min_rhoe: float
    totals: np.ndarray          # integrals of the conserved variables
    entropy: float
    limited_fraction: float     # share of elements with l^e < 1

    def as_row(self):
        out = {"step": self.step, "t": self.t, "dt": self.dt,
               "min_rho": self.min_rho, "min_rhoe": self.min_rhoe,
               "entropy": self.entropy,
               "limited_fraction": self.limited_fraction}
        out.update(zip(TOTALS[len(self.totals) - 2], self.totals))
        return out


def _check_state(u, step, stage, t):
    # the messages index the state as it leaves advance, (K, Np, nvar)
    u = u.T
    if not np.isfinite(u).all():
        k, i, _ = np.unravel_index(np.argmin(np.isfinite(u)), u.shape)
        raise FloatingPointError(
            f"non-finite state at step {step} stage {stage} t={t:.6g} "
            f"(element {k}, node {i})")
    ok = is_admissible(u)
    if not np.all(ok):
        k, i = np.unravel_index(np.argmin(ok), ok.shape)
        raise FloatingPointError(
            f"inadmissible state at step {step} stage {stage} t={t:.6g} "
            f"(element {k}, node {i}: rho={u[k, i, 0]:.3e}, "
            f"rhoe={internal_energy(u[k, i]):.3e})")


class StageBoundError(FloatingPointError):
    """dt exceeds the positivity bound m/(2 lambda) of an RK stage state."""

    def __init__(self, message, bound):
        super().__init__(message)
        self.bound = bound


def _check_dt(stepper, prep, dt, step, stage, t):
    bound = stepper.dt_bound(prep)
    if bound is None or dt <= bound:
        return
    ratio = stepper.mesh.mass / (2.0 * prep["lam"].T)
    k, i = np.unravel_index(np.argmin(ratio), ratio.shape)
    raise StageBoundError(
        f"dt exceeds the admissibility bound at step {step} stage {stage} "
        f"t={t:.6g} (element {k}, node {i}: bound m/(2 lambda)={bound:.6e}, "
        f"dt={dt:.6e}, dt/bound={dt / bound:.6g})", bound)


def ssp_rk3_step(u, t, dt, stepper: Stepper, prep1=None, step=0,
                 check=True):
    """One SSPRK(3,3) step in Shu-Osher form; returns (u_new, last report).

    ``u`` is (nvar, Np, K), as :meth:`Stepper.prepare` takes it. prep1
    may carry the already-prepared first-stage residuals (so advance can
    size dt from them without recomputation). With ``check``, each stage
    state must be finite and admissible (else FloatingPointError), and dt
    must not exceed the stage's positivity bound m/(2 lambda) in the modes
    that have one (else StageBoundError). The messages name the step, the
    stage, the step's start time t and the node.
    """
    if prep1 is None:
        prep1 = stepper.prepare(u, t)
    if check:
        _check_dt(stepper, prep1, dt, step, 1, t)
    u1, _ = stepper.apply(u, t, dt, prep1)
    if check:
        _check_state(u1, step, 1, t)

    p2 = stepper.prepare(u1, t + dt)
    if check:
        _check_dt(stepper, p2, dt, step, 2, t)
    v, _ = stepper.apply(u1, t + dt, dt, p2)
    u2 = np.multiply(0.25, v, out=v)
    u2 += 0.75 * u
    if check:
        _check_state(u2, step, 2, t)

    p3 = stepper.prepare(u2, t + 0.5 * dt)
    if check:
        _check_dt(stepper, p3, dt, step, 3, t)
    w, rep = stepper.apply(u2, t + 0.5 * dt, dt, p3)
    unew = np.multiply(2.0 / 3.0, w, out=w)
    unew += u / 3.0
    if check:
        _check_state(unew, step, 3, t)
    return unew, rep


def advance(stepper: Stepper, u0, t0, t_final, cfl,
            callback=None, collect=True):
    """March u0 from t0 to t_final; returns (u, list of StepDiagnostics).

    callback, when given, is invoked after every step as
    callback(step, t, u, diagnostics_row, limiter_report).

    ``u0``, the returned u and the callback's u are (K, Np, nvar), the
    latter two views of the (nvar, Np, K) state of the step.

    dt is sized once per step from the pre-step state: the positivity
    bound times the user CFL. Mode "none" has no bound of its own and uses
    the low-order scheme's, viscous fluxes included. When a later stage
    state has a smaller bound than dt, the step restarts from the pre-step
    state with cfl times that bound, up to MAX_RETRIES times. A restart
    prepares the pre-step state again, because the later stages have
    overwritten the first stage's ``prep`` (see :meth:`Stepper.prepare`).
    """
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    mesh, gas = stepper.mesh, stepper.gas
    u = np.array(np.asarray(u0, dtype=float).T, order="C")
    t = float(t0)
    diags = []
    step = 0

    while t < t_final - 1e-14 * max(1.0, abs(t_final)):
        if step >= MAX_STEPS:
            raise RuntimeError(f"exceeded {MAX_STEPS} steps at t={t:.6g}")
        prep1 = stepper.prepare(u, t)
        bound = stepper.dt_bound(prep1)
        if bound is None:
            low = stepper.low
            bound = low.max_dt(low.wavespeeds(u, prep1["faces"], prep1["sig"],
                                              stepper.ws), stepper.ws)
        dt = min(cfl * bound, t_final - t)
        for attempt in range(MAX_RETRIES + 1):
            try:
                u, rep = ssp_rk3_step(u, t, dt, stepper, prep1, step)
                break
            except StageBoundError as exc:
                if attempt == MAX_RETRIES:
                    raise
                log.info("%s; restarting the step with dt=%.3g", exc,
                         cfl * exc.bound)
                dt = cfl * exc.bound
                prep1 = stepper.prepare(u, t)
        t = t + dt
        step += 1

        if collect or callback is not None or step % LOG_EVERY == 0:
            row = _diagnose(mesh, gas, u, t, dt, step, rep)
            if collect:
                diags.append(row)
            if callback is not None:
                callback(step, t, u.T, row, rep)
            if step % LOG_EVERY == 0:
                log.info("step %d  t=%.6g  dt=%.3g  min rho=%.3e  "
                         "min rhoe=%.3e  limited=%.1f%%", step, t, dt,
                         row.min_rho, row.min_rhoe,
                         100 * row.limited_fraction)
    return u.T, diags


def _diagnose(mesh, gas, u, t, dt, step, rep: LimiterReport | None):
    # the integrals are summed over the state as it leaves advance
    u = np.ascontiguousarray(u.T)
    totals = (mesh.mass[..., None] * u).sum(axis=(0, 1))
    eta = float((mesh.mass * entropy(u, gas)).sum())
    frac = 0.0
    if rep is not None:
        frac = float(np.mean(rep.l_elem < 1.0))
    return StepDiagnostics(
        step=step, t=t, dt=dt,
        min_rho=float(u[..., 0].min()),
        min_rhoe=float(internal_energy(u).min()),
        totals=totals, entropy=eta, limited_fraction=frac)
