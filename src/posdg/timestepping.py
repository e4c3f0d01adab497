"""SSP-RK3 time integration built from positivity-limited Euler stages.

Each Runge-Kutta stage is one forward-Euler update of the blended scheme;
the three-stage convex combination (Shu-Osher form) therefore inherits the
admissibility guarantee of the stages whenever dt satisfies the positivity
bound dt <= cfl * min_i m_i / (2 lambda_i) with cfl <= 1. The march holds
the state component first, (nvar, Np, K), from :func:`advance`'s copy of
u0 to the (K, Np, nvar) views it returns and hands its callback; the stage
checks and the per-step diagnostics read it as it stands, and no
variable-last adapter of :mod:`posdg.physics` is called here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bc import BCSet
from .limiter import (
    ConvexLimiter,
    LimiterReport,
    generalized_bounds,
    increment,
    minimal_bounds,
    shock_indicator,
    zhang_shu_limit,
)
from .mesh import Mesh
from .physics import GasParams, entropy_cf, internal_energy_cf
from .rhs_high import HighOrderRHS, LDGGradient
from .rhs_low import LowOrderRHS
from .workspace import Workspace

__all__ = ["Stepper", "advance", "StepDiagnostics", "StageBoundError"]

log = logging.getLogger("posdg")

MODES = ("none", "elementwise", "convex", "low-only")
# the modes whose l a shock indicator can cap
LIMITED_MODES = ("elementwise", "convex")

# restarts of one step from a stage's positivity bound before advance gives up
MAX_RETRIES = 8
# a restart sizes dt at min(cfl, 1 - RESTART_MARGIN) times the failing
# stage's bound: at cfl = 1 a dt of the bound itself moves the restarted
# stage's state, and its bound lands just below dt again
RESTART_MARGIN = 0.01
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
    high order), "elementwise" (Zhang-Shu style blend), or "convex"
    (pairwise FCT limiting). The high-order update takes the low-order
    interface flux, so it differs from the low-order update u^L only by the
    scattered pair differences dF = F^H - F^L: both limiters blend through
    dF, and mode "none" is the blend with every l = 1. Every column of the
    mesh's ``scatter`` sums to zero, so the blend conserves by
    construction. zeta > 0 selects the relaxed bounds; zeta = 0 the minimal
    ones. shock_capture caps l, so it needs a limited mode.

    The Stepper owns the one :class:`~posdg.workspace.Workspace` of a run:
    the low- and high-order pair fluxes, and with them dF, are its kept
    arrays, and every stage kernel takes it from here for its temporaries,
    so the stages of a run reuse the same memory.
    """

    def __init__(self, mesh: Mesh, gas: GasParams, bcs: BCSet,
                 mode: str = "elementwise", zeta: float = 0.1,
                 shock_capture: bool = False):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.0 <= zeta <= 1.0:
            raise ValueError(f"zeta must lie in [0, 1], got {zeta!r}")
        if shock_capture and mode not in LIMITED_MODES:
            raise ValueError(f"shock_capture needs a mode in {LIMITED_MODES}")
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
        self._minv = 1.0 / mesh.node_mass

    def prepare(self, u, t):
        """Residual and rates of a stage state; dt-independent.

        One call per piece of the scheme: the face states, the only
        evaluation of the boundary states (``LowOrderRHS.face_states``);
        the viscous fluxes of the LDG gradient; the low-order stage, which
        forms the boundaries' exterior viscous fluxes in its end table and
        returns the residual ``R``, the nodal rates ``lam`` and F^L
        (:class:`LowOrderRHS`); and, in every mode but "low-only", the pair
        differences ``dF`` = F^H - F^L (:class:`HighOrderRHS`, one (nvar,
        npairs, K) array over the mesh's pair graph). ``prep`` holds R, lam,
        dF and the float ``bound`` = min m/(2 lam); u and R are (nvar, Np, K).

        A ``prep`` is valid until the next ``prepare`` on the same Stepper:
        its arrays but ``lam`` live in the Stepper's workspace, and every
        call overwrites them.
        """
        ws = self.ws
        uf, uP = self.low.face_states(u, t, ws)
        sig = None if self.grad is None else self.grad(u, uP, ws)[2]
        R, lam, FL = self.low(u, uf, uP, sig, ws=ws)
        dF = None if self.high is None else self.high(u, sig, FL, ws)
        bound = float(self._node_bounds(lam).min())
        return {"R": R, "lam": lam, "dF": dF, "bound": bound}

    def _node_bounds(self, lam):
        """m_i / (2 lambda_i) per node, (Np, K)."""
        return self.mesh.node_mass / (2.0 * lam)

    def apply(self, u, dt, prep):
        """One limited forward-Euler update. Returns (u_new, report)."""
        mesh = self.mesh
        # u + dt R / m, in one new array
        uL = np.multiply(dt, prep["R"])
        uL *= self._minv
        uL += u
        if self.mode == "low-only":
            return uL, None
        if self.mode == "none":
            uL += increment(mesh, prep["dF"], dt)
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
    """Per-step scalar diagnostics collected by advance(). ``totals`` and
    ``entropy`` are sum_i m_i u_i and sum_i m_i eta(u_i), one matvec each over
    the (nvar, Np, K) state, a few ulp from the former sums over a (K, Np,
    nvar) copy; the minima are bitwise those the last stage check accepted."""

    step: int
    t: float
    dt: float
    min_rho: float
    min_rhoe: float
    totals: np.ndarray          # integrals of the conserved variables
    entropy: float
    limited_fraction: float     # share of elements with l^e < 1

    @staticmethod
    def columns(dim):
        """The names of :meth:`values`, in their order: the columns of
        diagnostics.csv."""
        return ("step", "t", "dt", "min_rho", "min_rhoe", *TOTALS[dim],
                "entropy", "limited_fraction")

    def values(self):
        return (self.step, self.t, self.dt, self.min_rho, self.min_rhoe,
                *self.totals, self.entropy, self.limited_fraction)


def _check_state(u, step, stage, t):
    """Raise FloatingPointError unless the stage state ``u`` (nvar, Np, K)
    is finite and admissible at every node.

    One pass accepts it: rho and rho e have positive minima and finite
    maxima. That is the set of finite, admissible states, because an inf
    or NaN in rho, m or E reaches rho or rho e = E - |m|^2 / (2 rho). The
    messages are built only on failure, from the same rho e; they name the
    first bad node in element-major order, as advance returns the state.
    """
    rho = u[0]
    rhoe = internal_energy_cf(u)
    if (rho.min() > 0.0 and rhoe.min() > 0.0
            and np.isfinite(rho.max()) and np.isfinite(rhoe.max())):
        return
    ok = np.isfinite(u).all(axis=0).T
    if not ok.all():
        k, i = np.unravel_index(np.argmin(ok), ok.shape)
        raise FloatingPointError(
            f"non-finite state at step {step} stage {stage} t={t:.6g} "
            f"(element {k}, node {i})")
    ok = ((rho > 0.0) & (rhoe > 0.0)).T
    if not ok.all():
        k, i = np.unravel_index(np.argmin(ok), ok.shape)
        raise FloatingPointError(
            f"inadmissible state at step {step} stage {stage} t={t:.6g} "
            f"(element {k}, node {i}: rho={rho[i, k]:.3e}, "
            f"rhoe={rhoe[i, k]:.3e})")


class StageBoundError(FloatingPointError):
    """dt exceeds the positivity bound m/(2 lambda) of an RK stage state."""

    def __init__(self, message, bound):
        super().__init__(message)
        self.bound = bound


def _check_dt(stepper, prep, dt, step, stage, t):
    """Raise StageBoundError unless dt is within the positivity bound
    m_i / (2 lambda_i) of every node of the prepared stage.

    The bound :meth:`Stepper.prepare` formed accepts it; the per-node
    bounds that name the smallest in the message are formed on failure.
    """
    if dt <= prep["bound"]:
        return
    bounds = stepper._node_bounds(prep["lam"]).T   # (K, Np), message order
    k, i = np.unravel_index(np.argmin(bounds), bounds.shape)
    bound = float(bounds[k, i])
    raise StageBoundError(
        f"dt exceeds the admissibility bound at step {step} stage {stage} "
        f"t={t:.6g} (element {k}, node {i}: bound m/(2 lambda)={bound:.6e}, "
        f"dt={dt:.6e}, dt/bound={dt / bound:.6g})", bound)


# (c, a, b) of the SSPRK(3,3) stages in Shu-Osher form: stage s is
# a E(u_{s-1}) + b(u), E the Euler update at t + c dt; stage 1 is E(u)
SHU_OSHER = ((0.0, None, None),
             (1.0, 0.25, lambda u: 0.75 * u),
             (0.5, 2.0 / 3.0, lambda u: u / 3.0))


def ssp_rk3_step(u, t, dt, stepper: Stepper, prep1=None, step=0):
    """One SSPRK(3,3) step in Shu-Osher form; returns (u_new, last report).

    ``u`` is (nvar, Np, K), as :meth:`Stepper.prepare` takes it. prep1
    may carry the already-prepared first-stage residuals (so advance can
    size dt from them without recomputation). Each stage state must be
    finite and admissible (else FloatingPointError), and dt must not exceed
    the stage's positivity bound m/(2 lambda) (else StageBoundError). The
    messages name the step, the stage, the step's start time t and the
    node.
    """
    v = u
    for stage, (c, a, b) in enumerate(SHU_OSHER, start=1):
        ts = t + c * dt
        prep = (prep1 if stage == 1 and prep1 is not None
                else stepper.prepare(v, ts))
        _check_dt(stepper, prep, dt, step, stage, t)
        v, rep = stepper.apply(v, dt, prep)
        if a is not None:
            v *= a
            v += b(u)
        _check_state(v, step, stage, t)
    return v, rep


def advance(stepper: Stepper, u0, t0, t_final, cfl,
            callback=None, collect=True):
    """March u0 from t0 to t_final; returns (u, list of StepDiagnostics).

    callback, when given, is invoked after every step as
    callback(step, t, u, diagnostics_row, limiter_report).

    ``u0``, the returned u and the callback's u are (K, Np, nvar), the
    latter two views of the (nvar, Np, K) state of the step. The row is
    formed from that state without a copy (see :class:`StepDiagnostics`).

    dt is sized once per step from the pre-step state: the positivity
    bound times the user CFL. When a later stage state has a smaller bound
    than dt, the step restarts from the pre-step state with min(cfl, 1 -
    RESTART_MARGIN) times that bound, up to MAX_RETRIES times: strictly
    below the bound, as the restarted stage's own bound moves with dt. A
    restart prepares the pre-step state again, because the later stages
    have overwritten the first stage's ``prep`` (see
    :meth:`Stepper.prepare`). u0 is checked as the state of
    step 0, stage 0, so a bad one fails with its node named, not as dt=nan.
    """
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    mesh, gas = stepper.mesh, stepper.gas
    u = np.array(np.asarray(u0, dtype=float).T, order="C")
    t = float(t0)
    _check_state(u, 0, 0, t)
    diags = []
    step = 0

    while t < t_final - 1e-14 * max(1.0, abs(t_final)):
        if step >= MAX_STEPS:
            raise RuntimeError(f"exceeded {MAX_STEPS} steps at t={t:.6g}")
        prep1 = stepper.prepare(u, t)
        dt = min(cfl * prep1["bound"], t_final - t)
        for attempt in range(MAX_RETRIES + 1):
            try:
                u, rep = ssp_rk3_step(u, t, dt, stepper, prep1, step)
                break
            except StageBoundError as exc:
                if attempt == MAX_RETRIES:
                    raise
                dt = min(cfl, 1.0 - RESTART_MARGIN) * exc.bound
                log.info("%s; restarting the step with dt=%.3g", exc, dt)
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
    # u is (nvar, Np, K); each integral is one matvec, no state-sized copy
    m = mesh.node_mass.reshape(-1)
    totals = u.reshape(len(u), -1) @ m
    eta = float(entropy_cf(u, gas).reshape(-1) @ m)
    frac = 0.0
    if rep is not None:
        frac = float(np.mean(rep.l_elem < 1.0))
    return StepDiagnostics(
        step=step, t=t, dt=dt,
        min_rho=float(u[0].min()),
        min_rhoe=float(internal_energy_cf(u).min()),
        totals=totals, entropy=eta, limited_fraction=frac)
