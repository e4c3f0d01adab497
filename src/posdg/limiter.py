"""Positivity-preserving blending of low- and high-order updates.

Given the low-order update u^L (admissible by construction) and the
increment P toward the high-order update, the largest feasible fraction

    l in [0, 1]:  rho(u^L + l P) >= rho_min  and  rhoe(u^L + l P) >= rhoe_min

reduces to a linear solve for the density and a quadratic solve for the
internal energy, since rho * rhoe is quadratic along the segment.  That
solve is only needed where the endpoint uL + P violates a bound: rho is
linear in u and rhoe is concave, so the bounded set {rho >= rho_min,
rhoe >= rhoe_min} is convex, and a segment whose two ends lie in it lies in
it entirely (:func:`feasible_l`).

Both limiters take one input, the antidiffusive pair fluxes
dF_ij = F^H_ij - F^L_ij of each geometry class (:func:`antidiffusive_fluxes`).
The two schemes share their interface flux, so r^H - r^L is the scatter of
dF, and every column of a class's ``scatter`` sums to zero: whatever the
blend, the update conserves by construction.  Two assembly modes are
provided: elementwise blending with a single l per element (Zhang-Shu
style) and pairwise convex (FCT style) limiting, which localizes l to node
pairs.  A modal shock indicator can cap the blending parameter to force
low-order behavior near discontinuities independent of positivity.

The pair-end gathers, the increments P, the endpoint screen of
:func:`feasible_l` and the limited fluxes are formed in a
:class:`~posdg.workspace.Workspace` (the Stepper's, or a fresh one), so the
limiters allocate no pair-sized array beyond the substates they solve for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .physics import GasParams, _dot, internal_energy, pressure
from .workspace import Workspace

__all__ = [
    "Bounds",
    "LimiterReport",
    "antidiffusive_fluxes",
    "feasible_l",
    "generalized_bounds",
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
    return Bounds(zeta * uL[..., 0], zeta * internal_energy(uL))


def minimal_bounds(uL: np.ndarray, eps0: float = 1e-14) -> Bounds:
    """Bare positivity: both bounds equal the small constant eps0."""
    full = np.full(uL.shape[:-1], eps0)
    return Bounds(full, full)


def solve_l(uL: np.ndarray, P: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Largest l in [0,1] keeping uL + l P inside the bounded admissible set.

    Vectorized over leading axes. uL must satisfy the bounds itself; the
    constant coefficient of the energy quadratic is clamped at zero to guard
    the roundoff case where it computes marginally negative.
    """
    rhoL, EL = uL[..., 0], uL[..., -1]
    mL = uL[..., 1:-1]
    rhoP, EP = P[..., 0], P[..., -1]
    mP = P[..., 1:-1]
    rho_min = np.broadcast_to(bounds.rho_min, rhoL.shape)
    rhoe_min = np.broadcast_to(bounds.rhoe_min, rhoL.shape)

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

    scale = np.maximum(np.abs(a) + np.abs(b) + np.abs(c), 1e-300)
    linear = np.abs(a) <= 1e-12 * scale

    with np.errstate(divide="ignore", invalid="ignore"):
        l_lin = np.where(b < 0.0, -c / np.where(b == 0.0, 1.0, b), np.inf)

        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        q = -0.5 * (b + np.copysign(sq, b))
        r1 = np.where(a != 0.0, q / np.where(a == 0.0, 1.0, a), np.inf)
        r2 = np.where(q != 0.0, c / np.where(q == 0.0, 1.0, q), np.inf)

    def first_nonneg(r):
        r = np.where(r >= -1e-12, np.maximum(r, 0.0), np.inf)
        return np.where(np.isnan(r), np.inf, r)

    l_quad = np.minimum(first_nonneg(r1), first_nonneg(r2))
    # an upward parabola with no real crossing never blocks; a roundoff-level
    # discriminant is a tangency, where the dip below the bound is within
    # arithmetic noise and the (well-conditioned) density constraint governs
    tangent = disc <= 1e-13 * (b * b + np.abs(4.0 * a * c))
    l_quad = np.where((a > 0.0) & tangent, np.inf, l_quad)
    l_e = np.where(linear, l_lin, l_quad)

    return np.minimum(l_rho, np.clip(l_e, 0.0, 1.0))


def feasible_l(uL: np.ndarray, P: np.ndarray, bounds: Bounds,
               ws=None) -> np.ndarray:
    """:func:`solve_l`, with l = 1 wherever the endpoint uL + P is in bounds.

    The bounded set is convex and uL lies in it, so an endpoint that passes
    the bound checks (rho >= rho_min and internal_energy >= rhoe_min) makes
    the whole segment feasible; :func:`solve_l` runs only on the others.
    This also spares those segments the cancellation in solve_l's quadratic
    when the kinetic energy dwarfs the internal energy. The screen forms
    the endpoint one component at a time, in buffers of the workspace
    ``ws`` (a fresh one by default); l is taken from the caller's frame.
    """
    ws = Workspace() if ws is None else ws
    shape = P.shape[:-1]
    nvar = P.shape[-1]
    rho_min = np.broadcast_to(bounds.rho_min, shape)
    rhoe_min = np.broadcast_to(bounds.rhoe_min, shape)
    l = ws.take(shape)
    with ws.frame():
        # internal_energy(uL + P) = E - 0.5 * (m . m) / rho, term by term
        rho = np.add(uL[..., 0], P[..., 0], out=ws.take(shape))
        inside = np.greater_equal(rho, rho_min, out=ws.take(shape, bool))
        m = np.add(uL[..., 1], P[..., 1], out=ws.take(shape))
        kin = np.multiply(m, m, out=ws.take(shape))
        for c in range(2, nvar - 1):
            np.add(uL[..., c], P[..., c], out=m)
            np.multiply(m, m, out=m)
            kin += m
        np.multiply(0.5, kin, out=kin)
        kin /= rho
        np.add(uL[..., -1], P[..., -1], out=m)
        np.subtract(m, kin, out=m)
        inside &= np.greater_equal(m, rhoe_min, out=ws.take(shape, bool))
        l.fill(1.0)
        out = np.flatnonzero(np.logical_not(inside, out=inside))
    if out.size:
        l.reshape(-1)[out] = solve_l(
            uL.reshape(-1, nvar)[out], P.reshape(-1, nvar)[out],
            Bounds(rho_min.reshape(-1)[out], rhoe_min.reshape(-1)[out]))
    return l


@dataclass(frozen=True)
class LimiterReport:
    """Diagnostics from one limited update."""

    l_elem: np.ndarray               # per-element blending parameter
    shock_xi: np.ndarray | None      # per-element shock blend, if active


def zhang_shu_limit(uLnew, dF, dt, mesh: Mesh, bounds: Bounds, cap=None,
                    ws=None):
    """Elementwise blend u = u^L + l^e P with P = (dt/m) sum_j dF_ij.

    P is (dt/m)(r^H - r^L), formed as the scatter of the per-class pair
    differences dF (:func:`antidiffusive_fluxes`). l^e is the minimum over
    the element's nodes of the per-node feasible fraction, optionally
    capped by a per-element array (shock indicator). The bounded set is
    convex, so a node whose full high-order update u^L + P already meets
    the bounds has fraction 1 without a solve (:func:`feasible_l`), whose
    screen runs in the workspace ``ws`` (a fresh one by default).
    Returns (limited field, report).
    """
    ws = Workspace() if ws is None else ws
    r = np.empty_like(uLnew)
    for elems, gc, dFc in zip(mesh.class_elems, mesh.classes, dF):
        r[elems] = gc.scatter @ dFc
    P = (dt / mesh.mass[..., None]) * r
    with ws.frame():
        l_elem = feasible_l(uLnew, P, bounds, ws).min(axis=1)
    if cap is not None:
        l_elem = np.minimum(l_elem, cap)
    return uLnew + l_elem[:, None, None] * P, LimiterReport(l_elem, cap)


def antidiffusive_fluxes(mesh: Mesh, high_pairs, low_pairs):
    """F^H_ij - F^L_ij per class on the pair graph, formed in ``high_pairs``.

    ``high_pairs`` and ``low_pairs`` are the per-class results of
    ``HighOrderRHS.pair_fluxes`` and ``LowOrderRHS.pair_fluxes``; F^L is zero
    on the pairs outside the low-order subset. The F^H arrays are
    overwritten (and returned) rather than copied: with a workspace they
    are its kept arrays (:meth:`posdg.rhs_high.HighOrderRHS.pair_fluxes`),
    so dF occupies the same memory at every stage.
    """
    for gc, FH, (FL, _) in zip(mesh.classes, high_pairs, low_pairs):
        FH[:, gc.pair_low] -= FL
    return high_pairs


class ConvexLimiter:
    """Pairwise limiting of the antidiffusive part of the high-order update.

    The high-order update differs from the low-order one only through the
    volume pair fluxes

        F^H_ij = -sum_k (Q_k - Q_k^T)_ij [f_kS(u_i,u_j) - (s_ki + s_kj)/2]
        F^L_ij = low-order pair contribution,

    both antisymmetric; the interface flux is the low-order one in both.
    The limiter evaluates no flux: it receives their differences per pair
    of each class's graph (:func:`antidiffusive_fluxes`).
    Each node's update is a convex combination of substates
    u^L_i + (dt n_i / m_i) l_ij (F^H_ij - F^L_ij) with n_i the node's
    pair-plus-interface cardinality, so the symmetrized pairwise

        l_ij = min(feasible fraction at i, feasible fraction at j)

    keeps every substate, hence the update, inside the bounds. l_ij is
    symmetric and every column of ``scatter`` sums to zero, so the update
    conserves by construction. The bounded set is convex (rho is
    linear, rhoe concave in u), so a substate whose end l_ij = 1 meets the
    bounds needs no solve; only the others go to :func:`solve_l`
    (:func:`feasible_l`). Both ends of all pairs of a class are limited in
    one batched pass.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        Np = mesh.ops.n_nodes
        face_count = np.bincount(mesh.ops.face_vol, minlength=Np)
        # per class: the pair ends (every i, then every j) as flat node
        # indices into the class's elements, with each end's cardinality
        # |I(i)| + |B(i)|, its mass and the sign with which dF_ij enters it
        self._ends = []
        for elems, gc in zip(mesh.class_elems, mesh.classes):
            pi, pj = gc.pair_i, gc.pair_j
            card = (np.bincount(pi, minlength=Np)
                    + np.bincount(pj, minlength=Np) + face_count)
            ends = np.concatenate([pi, pj])
            sign = np.repeat([1.0, -1.0], len(pi))
            self._ends.append((elems[:, None] * Np + ends, card[ends],
                               gc.mass[ends], sign))

    def __call__(self, uLnew, dF, dt, bounds: Bounds, cap=None, ws=None):
        """Limited update from u^L and the per-class pair differences dF.

        The pair-end gathers, the increments P and the limited fluxes
        l_ij dF_ij are formed in the workspace ``ws`` (a fresh one by
        default), one frame per class.
        """
        ws = Workspace() if ws is None else ws
        mesh = self.mesh
        nvar = uLnew.shape[-1]
        flat = uLnew.reshape(-1, nvar)
        unew = uLnew.copy()
        l_min = np.ones(mesh.n_elements)
        for elems, gc, (at, card, mass, sign), dFc in zip(
                mesh.class_elems, mesh.classes, self._ends, dF):
            npairs = dFc.shape[1]
            # repeated over the variables, so the products below run over
            # contiguous (pair, variable) blocks
            fac = np.repeat(sign * (dt * card / mass), nvar).reshape(-1, nvar)
            with ws.frame():
                P = ws.take(at.shape + (nvar,))
                np.multiply(fac[:npairs], dFc, out=P[:, :npairs])
                np.multiply(fac[npairs:], dFc, out=P[:, npairs:])
                uL = np.take(flat, at, axis=0, out=ws.take(P.shape),
                             mode="clip")
                lo = Bounds(*(np.take(b, at, out=ws.take(at.shape),
                                      mode="clip")
                              for b in (bounds.rho_min, bounds.rhoe_min)))
                l2 = feasible_l(uL, P, lo, ws)
                l = np.minimum(l2[:, :npairs], l2[:, npairs:],
                               out=ws.take(dFc.shape[:-1]))
                if cap is not None:
                    np.minimum(l, cap[elems, None], out=l)
                l_min[elems] = l.min(axis=1)
                # l_ij dt dF_ij, one variable at a time: a per-pair factor
                # broadcast over the short variable axis runs far slower
                l *= dt
                ldF = ws.take(dFc.shape)
                for v in range(nvar):
                    np.multiply(l, dFc[..., v], out=ldF[..., v])
                unew[elems] += gc.scatter @ ldF / gc.mass[:, None]
        return unew, LimiterReport(l_min, cap)


def shock_indicator(u, ops, gas: GasParams):
    """Per-element blending value xi in [0,1] from modal energy of rho p.

    The top-mode energy fraction feeds a logistic ramp; xi = 1 means no
    forced low-order blending, xi = 0.5 is the strongest response.
    """
    q = u[..., 0] * pressure(u, gas)
    modal = q @ ops.modal_proj.T
    deg = ops.mode_degree
    N = ops.degree
    m2 = modal * modal
    tot = m2.sum(axis=1)
    top = m2[:, deg == N].sum(axis=1)
    low_tot = m2[:, deg <= N - 1].sum(axis=1)
    sub = m2[:, deg == N - 1].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.maximum(np.where(tot > 0, top / tot, 0.0),
                       np.where(low_tot > 0, sub / low_tot, 0.0))

    T = 0.5 * 10.0 ** (-1.8 * (N + 1) ** 0.25)
    s = np.log(9999.0)
    alpha = 1.0 / (1.0 + np.exp(-s / T * (E - T)))
    alpha = np.where(alpha < 1e-3, 0.0, np.minimum(alpha, 0.5))
    return 1.0 - alpha
