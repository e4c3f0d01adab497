"""Positivity-preserving blending of low- and high-order updates.

Given the low-order update u^L (admissible by construction) and the
increment P toward the high-order update, the largest feasible fraction

    l in [0, 1]:  rho(u^L + l P) >= rho_min  and  rhoe(u^L + l P) >= rhoe_min

reduces to a linear solve for the density and, for the internal energy,
the root where the quadratic rho (rhoe - rhoe_min) along the segment
first turns negative (:func:`solve_l`).  That solve is only needed where
the endpoint uL + P violates a bound: rho is linear in u and rhoe is
concave, so the bounded set {rho >= rho_min, rhoe >= rhoe_min} is convex,
and a segment whose two ends lie in it lies in it entirely
(:func:`feasible_l`).

Both limiters take one input, the antidiffusive pair fluxes
dF_ij = F^H_ij - F^L_ij on the mesh's pair graph, one (nvar, npairs, K)
array (:class:`posdg.rhs_high.HighOrderRHS`); u^L and the updates are
(nvar, Np, K), the bounds (Np, K). The two schemes share their interface
flux, so r^H - r^L is the scatter of dF, and every blend adds to u^L the
:func:`increment` of dF or of its limited l dF. Every column of the mesh's
``scatter`` sums to zero: whatever the blend, the update conserves by
construction. Two assembly modes are provided: elementwise blending with a
single l per element (Zhang-Shu style) and pairwise convex (FCT style)
limiting, which localizes l to node pairs.  A modal shock indicator can
cap the blending parameter to force low-order behavior near
discontinuities independent of positivity.

The pair-end gathers, the endpoints of the screen, the limited fluxes and
their scatter are formed in the Stepper's
:class:`~posdg.workspace.Workspace`, so the limiters allocate no
pair-sized array beyond the substates they solve for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .physics import GasParams, _dot, internal_energy_cf, pressure_cf

__all__ = [
    "Bounds",
    "LimiterReport",
    "feasible_l",
    "generalized_bounds",
    "increment",
    "minimal_bounds",
    "solve_l",
    "zhang_shu_limit",
    "ConvexLimiter",
    "shock_indicator",
]


@dataclass(frozen=True)
class Bounds:
    """Per-node lower bounds on density and internal energy."""

    rho_min: np.ndarray
    rhoe_min: np.ndarray


def generalized_bounds(uL: np.ndarray, zeta: float) -> Bounds:
    """Relaxed bounds rho_min = zeta rho(u^L), rhoe_min = zeta rhoe(u^L)."""
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must lie in (0, 1]")
    return Bounds(zeta * uL[0], zeta * internal_energy_cf(uL))


# the bounds of bare positivity
EPS0 = 1e-14


def minimal_bounds(uL: np.ndarray) -> Bounds:
    """Bare positivity: both bounds equal the small constant EPS0."""
    full = np.full(uL.shape[1:], EPS0)
    return Bounds(full, full)


def solve_l(uL: np.ndarray, P: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Largest l in [0,1] keeping uL + l P inside the bounded admissible set.

    ``uL`` and ``P`` are (nvar, ...), vectorized over the trailing axes;
    uL must satisfy the bounds itself. The density bound is linear in l.
    The energy bound, multiplied through by rho, is g(l) = a l^2 + b l + c
    >= 0, with c clamped at zero against rounding, and its l is the root
    where g crosses from >= 0 to < 0. With q = -(b + sign(b) sqrt(b^2 -
    4ac)) / 2 the roots are c/q and q/a (no nearly equal terms subtract):
    the crossing is c/q where q > 0, q/a where q <= 0 and a < 0 (the roots
    straddle l = 0), and absent otherwise (a >= 0 and b >= 0). No upward
    parabola misses the axis, as g = -|m|^2 / 2 <= 0 where rho vanishes,
    so the discriminant is clamped at zero only against rounding.
    """
    rhoL, mL, EL = uL[0], uL[1:-1], uL[-1]
    rhoP, mP, EP = P[0], P[1:-1], P[-1]
    rho_min, rhoe_min = bounds.rho_min, bounds.rhoe_min

    # density constraint is linear in l
    with np.errstate(divide="ignore", invalid="ignore"):
        l_rho = np.where(rhoL + rhoP >= rho_min, 1.0,
                         (rho_min - rhoL) / np.where(rhoP == 0.0, 1.0, rhoP))
    l_rho = np.clip(l_rho, 0.0, 1.0)

    # rho * (rhoe - rhoe_min) >= 0 is quadratic:  a l^2 + b l + c >= 0
    a = EP * rhoP - 0.5 * _dot(mP, mP)
    b = EL * rhoP + EP * rhoL - _dot(mL, mP) - rhoe_min * rhoP
    c = EL * rhoL - 0.5 * _dot(mL, mL) - rhoe_min * rhoL
    c = np.maximum(c, 0.0)

    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        l_e = np.where(q > 0.0, c / q, np.where(a < 0.0, q / a, np.inf))

    return np.minimum(l_rho, np.clip(l_e, 0.0, 1.0))


def _outside(end, rho_min, rhoe_min, ws):
    """Flat indices of the states ``end`` (nvar, ...) outside the bounds.

    The tests are rho >= rho_min and rho (E - rhoe_min) >= |m|^2 / 2, the
    internal-energy bound rhoe >= rhoe_min multiplied through by rho, which
    needs no division; see :func:`feasible_l` for why the two agree.
    """
    shape = end.shape[1:]
    with ws.frame():
        inside = np.greater_equal(end[0], rho_min, out=ws.take(shape, bool))
        margin = np.subtract(end[-1], rhoe_min, out=ws.take(shape))
        margin *= end[0]
        kin = _dot(end[1:-1], end[1:-1], ws.take(shape), ws.take(shape))
        kin *= 0.5
        inside &= np.greater_equal(margin, kin, out=ws.take(shape, bool))
        return np.flatnonzero(np.logical_not(inside, out=inside))


def feasible_l(uL: np.ndarray, P: np.ndarray, bounds: Bounds,
               ws) -> np.ndarray:
    """:func:`solve_l`, with l = 1 wherever the endpoint uL + P is in bounds.

    The bounded set is convex and uL lies in it, so an endpoint that passes
    the bound checks makes the whole segment feasible; :func:`solve_l` runs
    only on the others. On the feasible segments the two agree up to the
    rounding of the quadratic's coefficients, so the screen saves work and
    changes no l beyond that.

    The checks are rho >= rho_min and rho (E - rhoe_min) >= |m|^2 / 2
    (:func:`_outside`), the second being rho (rhoe - rhoe_min) >= 0 since
    rhoe = E - |m|^2 / (2 rho). Where rho >= rho_min > 0 it holds exactly
    when rhoe >= rhoe_min, and a state with rho < rho_min is outside
    either way, so with rho_min > 0, as every bound has, the test without
    division is the quotient test. In floating point the two can part only
    where rhoe - rhoe_min is within the rounding of E and |m|^2 / (2 rho).
    The bounds have the shape of the states, P.shape[1:]. The screen forms
    the endpoint in a buffer of the workspace ``ws``; l is taken from the
    caller's frame.
    """
    nvar, shape = len(P), P.shape[1:]
    rho_min, rhoe_min = bounds.rho_min, bounds.rhoe_min
    l = ws.take(shape)
    with ws.frame():
        end = np.add(uL, P, out=ws.take(P.shape))
        out = _outside(end, rho_min, rhoe_min, ws)
    l.fill(1.0)
    if out.size:
        l.reshape(-1)[out] = solve_l(
            uL.reshape(nvar, -1)[:, out], P.reshape(nvar, -1)[:, out],
            Bounds(rho_min.reshape(-1)[out], rhoe_min.reshape(-1)[out]))
    return l


@dataclass(frozen=True)
class LimiterReport:
    """Diagnostics from one limited update."""

    l_elem: np.ndarray               # per-element blending parameter
    shock_xi: np.ndarray | None      # per-element shock blend, if active


def increment(mesh: Mesh, X, dt, out=None):
    """(dt/m) scatter(X) of pair values X (nvar, npairs, K), into ``out``
    (a new array by default): one matrix product over the mesh."""
    P = np.matmul(mesh.scatter, X, out=out)
    P *= dt / mesh.node_mass
    return P


def zhang_shu_limit(uLnew, dF, dt, mesh: Mesh, bounds: Bounds, cap=None, *,
                    ws):
    """Elementwise blend u = u^L + l^e P with P = (dt/m) sum_j dF_ij.

    P is (dt/m)(r^H - r^L), the :func:`increment` of the pair differences
    dF (:class:`posdg.rhs_high.HighOrderRHS`).
    l^e is the minimum over the element's nodes of the per-node feasible
    fraction, optionally capped by a per-element array (shock indicator).
    The bounded set is convex, so a node whose full high-order update
    u^L + P already meets the bounds has fraction 1 without a solve
    (:func:`feasible_l`). The scatter and the screen run in the workspace
    ``ws``. Returns (limited field, report).
    """
    with ws.frame():
        P = increment(mesh, dF, dt, ws.take(uLnew.shape))
        l_elem = feasible_l(uLnew, P, bounds, ws).min(axis=0)
        if cap is not None:
            l_elem = np.minimum(l_elem, cap)
        unew = np.multiply(l_elem, P)
        unew += uLnew
        return unew, LimiterReport(l_elem, cap)


class ConvexLimiter:
    """Pairwise limiting of the antidiffusive part of the high-order update.

    The high-order update differs from the low-order one only through the
    volume pair fluxes

        F^H_ij = -sum_k (Q_k - Q_k^T)_ij [f_kS(u_i,u_j) - (s_ki + s_kj)/2]
        F^L_ij = low-order pair contribution,

    both antisymmetric; the interface flux is the low-order one in both.
    The limiter evaluates no flux: it receives their differences on the
    mesh's pair graph (:class:`posdg.rhs_high.HighOrderRHS`).
    Each node's update is a convex combination of substates
    u^L_i + a_i l_ij (F^H_ij - F^L_ij), a_i = dt |I(i)| / m_i with |I(i)|
    the node's pair-plus-interface cardinality, so the symmetrized pairwise

        l_ij = min(feasible fraction at i, feasible fraction at j)

    keeps every substate, hence the update, inside the bounds. l_ij is
    symmetric and every column of ``scatter`` sums to zero, so the update
    conserves by construction. The bounded set is convex (rho is
    linear, rhoe concave in u), so a substate whose end l_ij = 1 meets the
    bounds needs no solve; only the others go to :func:`solve_l`.

    All pairs of the mesh are limited at once, in the (variable, pair,
    element) layout of dF. The screen runs on pre-scaled substates: rho
    and rho e are positively homogeneous of degree one (rho e(c u) =
    c rho e(u) for c > 0), so with a_i > 0 the end u^L_i + a_i dF_ij lies
    in the bounds exactly when u^L_i / a_i + dF_ij lies in the bounds
    divided by a_i. u^L and both bounds are scaled once per node; a
    substate is then one add, + dF at end i and - dF at end j, screened by
    the test of :func:`feasible_l`. Only the substates that fail are
    gathered again, with P = +-a_i dF_ij as in the unscaled form, and both
    ends' go to one :func:`solve_l` call. The scaling needs dt > 0.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        Np = mesh.ops.n_nodes
        pi, pj = mesh.pair_i, mesh.pair_j
        card = (np.bincount(pi, minlength=Np) + np.bincount(pj, minlength=Np)
                + np.bincount(mesh.ops.face_vol, minlength=Np))
        # the cardinality |I(i)| + |B(i)| per node, (Np, 1)
        self._card = card[:, None].astype(float)

    def __call__(self, uLnew, dF, dt, bounds: Bounds, cap=None, *, ws):
        """Limited update from u^L and the pair differences dF.

        The bounds are per node, (Np, K). The scaled states, the limited
        fluxes l_ij dF_ij and their scatter are formed in the workspace
        ``ws``.
        """
        if not dt > 0.0:
            raise ValueError(f"the convex limiter needs dt > 0, got {dt}")
        nvar, Np, K = uLnew.shape
        shape = dF.shape[1:]
        mesh = self.mesh
        lims = (bounds.rho_min, bounds.rhoe_min)
        with ws.frame():
            # a_i = dt |I(i)| / m_i; u^L and the bounds over a_i
            a = np.divide(dt * self._card, mesh.node_mass,
                          out=ws.take((Np, K)))
            scaled = np.divide(uLnew, a, out=ws.take(uLnew.shape))
            lims_s = [np.divide(b, a, out=ws.take((Np, K))) for b in lims]
            # the substates that fail the screen, per end: their flat
            # (pair, element) index, node, element and P
            idx, nodes, elems, Ps = [], [], [], []
            for e, add in ((mesh.pair_i, np.add), (mesh.pair_j, np.subtract)):
                with ws.frame():
                    # u^L_i / a_i +- dF_ij
                    end = ws.gather(scaled, e)
                    add(end, dF, out=end)
                    out = _outside(end, *(ws.gather(b, e) for b in lims_s),
                                   ws)
                p, k = np.divmod(out, K)
                i = e[p]
                # P = a_i dF_ij at end i, -a_j dF_ij at end j
                P = np.multiply(a[i, k], dF.reshape(nvar, -1)[:, out])
                if add is np.subtract:
                    np.negative(P, out=P)
                idx.append(out)
                nodes.append(i)
                elems.append(k)
                Ps.append(P)
            # l_ij = min(l at i, l at j), 1 where both ends pass
            l = ws.take(shape)
            l.fill(1.0)
            n0 = idx[0].size
            if n0 + idx[1].size:
                i, k = np.concatenate(nodes), np.concatenate(elems)
                lsub = solve_l(uLnew[:, i, k], np.concatenate(Ps, axis=1),
                               Bounds(*(b[i, k] for b in lims)))
                flat = l.reshape(-1)
                flat[idx[0]] = lsub[:n0]
                flat[idx[1]] = np.minimum(flat[idx[1]], lsub[n0:])
            if cap is not None:
                np.minimum(l, cap, out=l)
            l_min = l.min(axis=0)
            ldF = np.multiply(l, dF, out=ws.take(dF.shape))
            du = increment(mesh, ldF, dt, ws.take(uLnew.shape))
            unew = uLnew + du
        return unew, LimiterReport(l_min, cap)


def shock_indicator(u, ops, gas: GasParams):
    """Per-element blending value xi in [0,1] from modal energy of rho p.

    ``u`` is (nvar, Np, K); returns (K,).

    The top-mode energy fraction feeds a logistic ramp; xi = 1 means no
    forced low-order blending, xi = 0.5 is the strongest response. From
    N = 2 on, the degree-(N-1) share of the modes up to N - 1 feeds it too
    (at N = 1 that share is 1 on every element).
    """
    q = u[0] * pressure_cf(u, gas)
    modal = ops.modal_proj @ q
    deg = ops.mode_degree
    N = ops.degree
    m2 = modal * modal
    tot = m2.sum(axis=0)
    top = m2[deg == N].sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.where(tot > 0, top / tot, 0.0)
        if N >= 2:
            low_tot = m2[deg <= N - 1].sum(axis=0)
            sub = m2[deg == N - 1].sum(axis=0)
            E = np.maximum(E, np.where(low_tot > 0, sub / low_tot, 0.0))

    T = 0.5 * 10.0 ** (-1.8 * (N + 1) ** 0.25)
    s = np.log(9999.0)
    alpha = 1.0 / (1.0 + np.exp(-s / T * (E - T)))
    alpha = np.where(alpha < 1e-3, 0.0, np.minimum(alpha, 0.5))
    return 1.0 - alpha
