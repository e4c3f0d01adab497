"""Blending-parameter solves, elementwise and convex limiting, shock blend."""

from fractions import Fraction

import numpy as np
import pytest
from oracles import bisect_l, convex_limit_ref, zhang_shu_limit_ref
from schemes import Scheme, components

from posdg import limiter
from posdg.bc import BCSet
from posdg.limiter import (
    Bounds,
    ConvexLimiter,
    feasible_l,
    generalized_bounds,
    minimal_bounds,
    shock_indicator,
    solve_l,
    zhang_shu_limit,
)
from posdg.mesh import interval_mesh, rect_mesh
from posdg.physics import (
    GasParams,
    internal_energy,
    primitive_to_conserved,
)
from posdg.rhs_low import interface_flux_low
from posdg.sbp import build_ops
from posdg.workspace import Workspace

GAS = GasParams(gamma=1.4)


# The limiters take component-first states (nvar, Np, K), bounds (Np, K)
# and substates (nvar, ...); these tests build their states variable-last,
# as advance takes them, and pass them through these adapters.

def _transposed(b):
    """Bounds with their (element, node) axes swapped, either way."""
    return Bounds(np.asarray(b.rho_min).T, np.asarray(b.rhoe_min).T)


def _bounds(uLnew, zeta=None):
    """generalized_bounds (with zeta) or minimal_bounds, variable-last."""
    uc = components(uLnew)
    return _transposed(generalized_bounds(uc, zeta) if zeta
                       else minimal_bounds(uc))


def _zhang_shu(uLnew, dF, dt, mesh, bounds, cap=None):
    out, rep = zhang_shu_limit(components(uLnew), dF, dt, mesh,
                               _transposed(bounds), cap=cap, ws=Workspace())
    return out.T, rep


def _convex(cl, uLnew, dF, dt, bounds, cap=None):
    out, rep = cl(components(uLnew), dF, dt, _transposed(bounds), cap=cap,
                  ws=Workspace())
    return out.T, rep


# ---------------------------------------------------------------------------
# solve_l
# ---------------------------------------------------------------------------

def test_solve_l_no_increment():
    uL = np.array([1.0, 0.3, 2.0])
    b = Bounds(np.array(0.5), np.array(0.5))
    assert solve_l(uL, np.zeros(3), b) == 1.0


def test_solve_l_linear_energy_case():
    # a = 0, b = -1.2, c = 0.95 -> l = 19/24
    uL = np.array([1.0, 0.0, 1.0])
    P = np.array([0.0, 0.0, -1.2])
    b = Bounds(np.array(1e-12), np.array(0.05))
    assert abs(solve_l(uL, P, b) - 19.0 / 24.0) < 1e-14


def test_solve_l_density_case():
    uL = np.array([1.0, 0.0, 1.0])
    P = np.array([-2.0, 0.0, 0.0])
    b = Bounds(np.array(0.1), np.array(1e-12))
    assert abs(solve_l(uL, P, b) - 0.45) < 1e-14


def _random_cases(rng, n, dim):
    nvar = dim + 2
    prim = np.empty((n, nvar))
    prim[:, 0] = 10.0 ** rng.uniform(-3, 1, n)
    prim[:, 1:-1] = rng.uniform(-3, 3, (n, dim))
    prim[:, -1] = 10.0 ** rng.uniform(-4, 1, n)
    uL = primitive_to_conserved(prim, GAS)

    P = rng.standard_normal((n, nvar))
    P *= (np.abs(uL).max(axis=1) * 10.0 ** rng.uniform(-2, 1, n))[:, None]
    # degenerate slices: a = 0 exactly, P parallel to uL (scaling kept clear
    # of the exact-tangency ray l = -1/s, which is ill-conditioned for any
    # root finder), pure energy drain
    k = n // 5
    P[:k, -1] = 0.5 * np.sum(P[:k, 1:-1] ** 2, axis=1) / np.where(
        P[:k, 0] == 0, 1.0, P[:k, 0])
    P[k:2 * k] = uL[k:2 * k] * rng.uniform(-0.95, 2, (k, 1))
    P[2 * k:3 * k, 0] = 0.0
    P[2 * k:3 * k, 1:-1] = 0.0

    zeta = rng.uniform(0.0, 1.0, n)
    rho_min = np.where(zeta > 0.05, zeta * uL[:, 0], 1e-14)
    rhoe_min = np.where(zeta > 0.05, zeta * internal_energy(uL), 1e-14)
    return uL, P, rho_min, rhoe_min


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_l_matches_bisection_oracle(dim):
    rng = np.random.default_rng(42 + dim)
    n = 5000
    uL, P, rho_min, rhoe_min = _random_cases(rng, n, dim)
    l_vec = solve_l(uL.T, P.T, Bounds(rho_min, rhoe_min))
    worst = 0.0
    for i in range(n):
        l_ref = bisect_l(uL[i], P[i], rho_min[i], rhoe_min[i])
        worst = max(worst, abs(l_vec[i] - l_ref))
    assert worst <= 1e-9, f"max |dl| = {worst}"


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_l_state_satisfies_bounds(dim):
    rng = np.random.default_rng(7 + dim)
    uL, P, rho_min, rhoe_min = _random_cases(rng, 2000, dim)
    l = solve_l(uL.T, P.T, Bounds(rho_min, rhoe_min))
    u = uL + l[:, None] * P
    guard = 1e-14 * (np.abs(u).max(axis=1) + 1.0)
    assert np.all(u[:, 0] >= rho_min - guard)
    # energy bound in the product form the limiter enforces; the quotient
    # rhoe = E - |m|^2/(2 rho) is not float-representable to this accuracy
    # when a draw lands next to vacuum
    rho, E = u[:, 0], u[:, -1]
    kin = 0.5 * np.sum(u[:, 1:-1] ** 2, axis=1)
    pguard = 1e-14 * (np.abs(rho * E) + kin + rhoe_min * rho + 1.0)
    assert np.all(rho * E - kin >= rhoe_min * rho - pguard)


def test_solve_l_upward_energy_parabola_always_crosses():
    # g = rho (rhoe - rhoe_min) = rho E - |m|^2/2 - rhoe_min rho is
    # -|m|^2/2 <= 0 where rho vanishes, so an upward g (a > 0) always has
    # real roots, one on each side of that point, and none may be skipped.
    # Exact tangency: rho, m and E - 1/4 all vanish at l = 1/2, where
    # g = l^2 - l + 1/4 touches zero; the density bound binds first
    uL = np.array([1.0, 1.0, 1.0])
    P = np.array([-2.0, -2.0, -1.5])
    l = solve_l(uL, P, Bounds(np.array(0.1), np.array(0.25)))
    assert abs(l - 0.45) < 1e-15
    # kinetic energy 2e13 x the internal one: the rounded discriminant is
    # negative, yet the endpoint breaks the energy bound in exact arithmetic
    uL = np.array([1.0, 467430.1991101304, 109245495520.07307])
    P = np.array([-0.959528339690173, -448512.52287319076,
                  -104824148935.00334])
    rho_min, rhoe_min = 1.4929464867105006e-09, 0.0030923674207173324
    rho, m, E = (Fraction(x) + Fraction(y) for x, y in zip(uL, P))
    assert rho * E - m * m / 2 - Fraction(rhoe_min) * rho < 0
    assert solve_l(uL, P, Bounds(np.array(rho_min), np.array(rhoe_min))) < 1.0


def test_solve_l_rejects_nothing_on_feasible_segment():
    # increments that keep the full segment admissible must give l = 1
    uL = primitive_to_conserved(np.array([2.0, 0.5, 3.0]), GAS)
    P = 1e-3 * np.ones(3)
    b = Bounds(np.array(1e-10), np.array(1e-10))
    assert solve_l(uL, P, b) == 1.0


# ---------------------------------------------------------------------------
# feasible_l: solve_l only where the endpoint leaves the bounds
# ---------------------------------------------------------------------------

def _count_solves(monkeypatch):
    calls = []

    def counted(uL, P, bounds):
        calls.append(uL.shape[1:])
        return solve_l(uL, P, bounds)

    monkeypatch.setattr(limiter, "solve_l", counted)
    return calls


def test_feasible_l_skips_solve_when_every_endpoint_is_inside(monkeypatch):
    rng = np.random.default_rng(3)
    uL = _random_cases(rng, 500, 2)[0]
    # uL + P = (1 + s) uL with s in [-0.5, 1] keeps half of rho and rhoe
    P = rng.uniform(-0.5, 1.0, (500, 1)) * uL
    calls = _count_solves(monkeypatch)
    l = feasible_l(uL.T, P.T,
                   Bounds(0.4 * uL[:, 0], 0.4 * internal_energy(uL)),
                   Workspace())
    assert calls == []
    assert l.dtype == np.float64 and np.all(l == 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_feasible_l_equals_solve_l_where_endpoint_is_outside(monkeypatch, dim):
    rng = np.random.default_rng(11 + dim)
    uL, P, rho_min, rhoe_min = _random_cases(rng, 4000, dim)
    bounds = Bounds(rho_min, rhoe_min)
    end = uL + P
    inside = (end[:, 0] >= rho_min) & (internal_energy(end) >= rhoe_min)
    assert 0 < inside.sum() < len(inside)
    calls = _count_solves(monkeypatch)
    l = feasible_l(uL.T, P.T, bounds, Workspace())
    assert calls == [((~inside).sum(),)]
    assert np.array_equal(l[~inside], solve_l(uL.T, P.T, bounds)[~inside])
    assert np.all(l[inside] == 1.0)


def test_solve_l_and_feasible_l_accept_fast_flow_endpoint():
    # kinetic energy 1e10 times the internal one, rhoe_L only 2% above its
    # bound: b > 0 and c > 0, so the other root of the energy quadratic is
    # a roundoff-sized negative l; the endpoint's internal energy is 1.5e10
    # x the bound, and solve_l takes the crossing past it, l = 1
    uL = np.array([1.0, 1e5, 0.5 + 5e9])
    P = np.array([1.0, 0.0, 0.5 + 5e9])
    bounds = Bounds(np.array(0.5), np.array(0.5 / 1.02))
    assert solve_l(uL, P, bounds) == 1.0
    l = feasible_l(uL[:, None], P[:, None],
                   Bounds(bounds.rho_min[None], bounds.rhoe_min[None]),
                   Workspace())
    assert l.tolist() == [1.0]
    end = uL + P
    assert end[0] >= bounds.rho_min
    assert internal_energy(end) >= bounds.rhoe_min


# ---------------------------------------------------------------------------
# elementwise limiting
# ---------------------------------------------------------------------------

def _leblanc_like_setup(K=16, N=2):
    mesh = interval_mesh(0.0, 1.0, K, N, periodic=True)
    x = mesh.xy[..., 0]
    uL_state = primitive_to_conserved(np.array([1.0, 0.0, 0.06667]), GAS)
    uR_state = primitive_to_conserved(np.array([1e-3, 0.0, 6.667e-11]), GAS)
    u = np.where(x[..., None] < 0.33, uL_state, uR_state)
    return mesh, u


def _scatter(mesh, dF):
    """r^H - r^L, (K, Np, nvar): the pair differences scattered."""
    return (mesh.scatter @ dF).T


def test_zhang_shu_identical_residuals():
    mesh, u = _leblanc_like_setup()
    sch = Scheme(mesh, GAS, BCSet({}))
    R = sch.low_residual(u, 0.0)[0]
    dt = 0.5 * sch.max_dt(u, 0.0)
    uLnew = u + dt * R / mesh.mass[..., None]
    dF = np.zeros((u.shape[-1], len(mesh.pair_i), mesh.n_elements))
    out, rep = _zhang_shu(uLnew, dF, dt, mesh,
                               _bounds(uLnew, 0.1))
    assert np.array_equal(out, uLnew)
    assert np.all(rep.l_elem == 1.0)


def test_zhang_shu_endpoints():
    mesh, u = _leblanc_like_setup()
    sch = Scheme(mesh, GAS, BCSet({}))
    RL, lam = sch.low_residual(u, 0.0)
    dF = sch.pair_differences(u)
    dt = 0.5 * float((mesh.mass / (2 * lam)).min())
    uLnew = u + dt * RL / mesh.mass[..., None]

    # l forced to zero: the low-order field must come back bitwise
    out0, _ = _zhang_shu(uLnew, dF, dt, mesh,
                              _bounds(uLnew, 0.1),
                              cap=np.zeros(mesh.n_elements))
    assert np.array_equal(out0, uLnew)

    # l = 1 where feasible reproduces the high-order update
    out1, rep = _zhang_shu(uLnew, dF, dt, mesh, _bounds(uLnew))
    uH = uLnew + (dt / mesh.mass[..., None]) * _scatter(mesh, dF)
    free = rep.l_elem == 1.0
    assert np.any(free)
    assert np.array_equal(out1[free], uH[free])


def test_zhang_shu_bounds_hold_under_stress():
    mesh, u = _leblanc_like_setup(K=32, N=2)
    sch = Scheme(mesh, GAS, BCSet({}))
    for zeta in (0.1, 0.5, 1.0):
        w = u.copy()
        for _ in range(5):
            RL, lam = sch.low_residual(w, 0.0)
            dF = sch.pair_differences(w)
            dt = float((mesh.mass / (2 * lam)).min())
            uLnew = w + dt * RL / mesh.mass[..., None]
            bounds = _bounds(uLnew, zeta)
            w, rep = _zhang_shu(uLnew, dF, dt, mesh, bounds)
            guard = 1e-14 * (np.abs(w).max() + 1.0)
            assert np.all(w[..., 0] >= bounds.rho_min - guard)
            assert np.all(internal_energy(w) >= bounds.rhoe_min - guard)
            assert np.all((rep.l_elem >= 0) & (rep.l_elem <= 1))


def test_zhang_shu_conserves():
    mesh, u = _leblanc_like_setup(K=32, N=3)
    sch = Scheme(mesh, GAS, BCSet({}))
    RL, lam = sch.low_residual(u, 0.0)
    dF = sch.pair_differences(u)
    dt = float((mesh.mass / (2 * lam)).min())
    uLnew = u + dt * RL / mesh.mass[..., None]
    out, _ = _zhang_shu(uLnew, dF, dt, mesh,
                             _bounds(uLnew, 0.1))
    before = (mesh.mass[..., None] * uLnew).sum(axis=(0, 1))
    after = (mesh.mass[..., None] * out).sum(axis=(0, 1))
    # elementwise blending is not pairwise conservative on its own; every
    # column of the scatter sums to zero, so the element (and global) means
    # are preserved
    assert np.abs(after - before).max() < 1e-12 * np.abs(before).max()


# ---------------------------------------------------------------------------
# convex limiting
# ---------------------------------------------------------------------------

def _smooth_2d(elem="quad", N=2, K=4, viscous=False):
    gas = GasParams(gamma=1.4, mu=0.01, Pr=0.75) if viscous else GAS
    mesh = rect_mesh(elem, (0.0, 2 * np.pi, 0.0, 2 * np.pi), K, K, N,
                     periodic=(True, True))
    x, y = mesh.xy[..., 0], mesh.xy[..., 1]
    prim = np.empty(mesh.xy.shape[:-1] + (4,))
    prim[..., 0] = 2.0 + 0.5 * np.sin(x) * np.cos(y)
    prim[..., 1] = 0.7 + 0.2 * np.cos(x)
    prim[..., 2] = -0.3 + 0.1 * np.sin(y)
    prim[..., 3] = 1.5 + 0.4 * np.sin(x + y)
    return mesh, primitive_to_conserved(prim, gas), gas


def _matched_residual(sch, u, sig=None):
    """r^H with the low-order interface flux, assembled from its parts:
    the normal fluxes evaluated on the face states, not read from the end
    table."""
    mesh = sch.mesh
    uf, uP = sch.faces(u, 0.0, sig)[:2]
    Rs = interface_flux_low(*sch.face_fluxes(u, 0.0, sig), uf, uP,
                            -0.5 * mesh.slot_wsJ, sch.rates(u, 0.0, sig)[1])
    R = mesh.ops.E.T @ Rs.reshape(len(Rs), mesh.n_face_nodes, -1)
    R += mesh.scatter @ sch.high_pairs(u, sig)
    return R.T


@pytest.mark.parametrize("elem", ["quad", "tri"])
@pytest.mark.parametrize("viscous", [False, True])
def test_convex_limit_reduces_to_high_order_when_feasible(elem, viscous):
    mesh, u, gas = _smooth_2d(elem, N=2, K=4, viscous=viscous)
    sch = Scheme(mesh, gas, BCSet({}))
    sig = sch.gradient(u, 0.0)[2] if viscous else None
    RL, lam = sch.low_residual(u, 0.0, sig)
    RH = _matched_residual(sch, u, sig)
    dt = 0.01 * float((mesh.mass / (2 * lam)).min())
    uLnew = u + dt * RL / mesh.mass[..., None]
    uH = uLnew + dt * (RH - RL) / mesh.mass[..., None]

    cl = ConvexLimiter(mesh)
    out, rep = _convex(cl, uLnew, sch.pair_differences(u, 0.0, sig), dt,
                  _bounds(uLnew))
    assert np.all(rep.l_elem == 1.0)
    err = np.abs(out - uH).max()
    assert err < 1e-13 * np.abs(uH).max(), err


def _jump_2d(elem):
    """Periodic near-vacuum box: the limiter binds on the jump."""
    mesh = rect_mesh(elem, (0.0, 1.0, 0.0, 1.0), 6, 6, 2, periodic=(True, True))
    x, y = mesh.xy[..., 0], mesh.xy[..., 1]
    inside = (np.abs(x - 0.5) < 0.25) & (np.abs(y - 0.5) < 0.25)
    hi = primitive_to_conserved(np.array([1.0, 0.0, 0.0, 1.0]), GAS)
    lo = primitive_to_conserved(np.array([1e-3, 0.0, 0.0, 1e-7]), GAS)
    return mesh, np.where(inside[..., None], hi, lo), GAS


@pytest.mark.parametrize("elem", ["quad", "tri"])
def test_convex_limit_conserves_and_bounds(elem):
    mesh, u, _ = _jump_2d(elem)
    sch = Scheme(mesh, GAS, BCSet({}))
    cl = ConvexLimiter(mesh)
    w = u.copy()
    for _ in range(4):
        RL, lam = sch.low_residual(w, 0.0)
        dt = float((mesh.mass / (2 * lam)).min())
        uLnew = w + dt * RL / mesh.mass[..., None]
        bounds = _bounds(uLnew, 0.1)
        w, rep = _convex(cl, uLnew, sch.pair_differences(w), dt, bounds)
        guard = 1e-14 * (np.abs(w).max() + 1.0)
        assert np.all(w[..., 0] >= bounds.rho_min - guard)
        assert np.all(internal_energy(w) >= bounds.rhoe_min - guard)
        drift = np.abs((mesh.mass[..., None] * (w - uLnew)).sum(axis=(0, 1)))
        scale = np.abs(mesh.mass[..., None] * uLnew).sum()
        assert drift.max() < 1e-12 * scale
        assert np.any(rep.l_elem < 1.0)


def test_convex_limit_zero_when_capped():
    mesh, u, gas = _smooth_2d("quad", N=2, K=3)
    sch = Scheme(mesh, gas, BCSet({}))
    RL, lam = sch.low_residual(u, 0.0)
    dt = float((mesh.mass / (2 * lam)).min())
    uLnew = u + dt * RL / mesh.mass[..., None]
    cl = ConvexLimiter(mesh)
    out, _ = _convex(cl, uLnew, sch.pair_differences(u), dt,
                _bounds(uLnew), cap=np.zeros(mesh.n_elements))
    assert np.array_equal(out, uLnew)


def _limiter_states(kind, elem):
    """(mesh, sch, u, cap, cfl) for the limiter parity tests.

    "jump" marches the strong jump of test_convex_limit_conserves_and_bounds
    at the full positivity step (l < 1 on part of the pairs); "smooth" is a
    smooth periodic state at a small step (every endpoint inside the
    bounds); "capped" is the jump under a per-element cap spread over [0, 1].
    """
    cfl = 1.0
    if kind == "smooth":
        mesh, u, gas = _smooth_2d(elem, N=2, K=4)
        cfl = 0.01
    else:
        mesh, u, gas = _jump_2d(elem)
    sch = Scheme(mesh, gas, BCSet({}))
    cap = None
    if kind == "capped":
        cap = np.linspace(0.0, 1.0, mesh.n_elements)
    return mesh, sch, u, cap, cfl


@pytest.mark.parametrize("elem", ["quad", "tri"])
@pytest.mark.parametrize("kind", ["jump", "smooth", "capped"])
@pytest.mark.parametrize("mode", ["convex", "elementwise"])
def test_limiters_match_unscreened_oracles(monkeypatch, mode, elem, kind):
    mesh, sch, w, cap, cfl = _limiter_states(kind, elem)
    calls = _count_solves(monkeypatch)
    cl = ConvexLimiter(mesh)
    limited = False
    for _ in range(4):
        RL, lam = sch.low_residual(w, 0.0)
        dt = cfl * float((mesh.mass / (2 * lam)).min())
        uLnew = w + dt * RL / mesh.mass[..., None]
        bounds = _bounds(uLnew, 0.1)
        dF = sch.pair_differences(w)
        if mode == "convex":
            out, rep = _convex(cl, uLnew, dF, dt, bounds, cap=cap)
            ref, l_ref = convex_limit_ref(mesh, uLnew, dF, dt, bounds, cap=cap)
        else:
            out, rep = _zhang_shu(uLnew, dF, dt, mesh, bounds, cap=cap)
            r = _scatter(mesh, dF)
            ref, l_ref = zhang_shu_limit_ref(uLnew, np.zeros_like(r), r, dt,
                                             mesh, bounds, cap=cap)
        if mode == "convex":
            # the oracle scatters each class's l_ij dt dF_ij element by
            # element, the limiter the whole mesh in one product: the sums
            # differ in order only
            scale = np.abs(ref).max(axis=(0, 1))
            assert np.all(np.abs(out - ref).max(axis=(0, 1)) <= 1e-14 * scale)
        else:
            assert np.array_equal(out, ref)
        assert np.array_equal(rep.l_elem, l_ref)
        limited |= bool(np.any(rep.l_elem < 1.0))
        w = out
    assert limited == (kind != "smooth")
    # only the limiter's solves are counted; the oracle binds solve_l itself
    assert (calls == []) == (kind == "smooth")


def _substates(mesh, uLnew, dF, dt):
    """The substates of both pair ends, u^L_i + a_i dF_ij and
    u^L_j - a_j dF_ij with a_i = dt |I(i)| / m_i, formed unscaled as the
    oracle forms them: (end nodes, (K, npairs, nvar) substates) per end."""
    Np = mesh.ops.n_nodes
    pi, pj = mesh.pair_i, mesh.pair_j
    card = (np.bincount(pi, minlength=Np) + np.bincount(pj, minlength=Np)
            + np.bincount(mesh.ops.face_vol, minlength=Np))
    a = dt * card / mesh.mass
    return [(e, uLnew[:, e] + sign * a[:, e, None] * dF.T)
            for e, sign in ((pi, 1.0), (pj, -1.0))]


@pytest.mark.parametrize("elem", ["quad", "tri"])
def test_convex_limit_matches_oracle_with_substates_at_the_bounds(
        monkeypatch, elem):
    # at about half the nodes the bounds sit a few ulps either side of the
    # node's least substate rho and rho e (where that lies between 0.1 u^L
    # and u^L), elsewhere at 0.1 u^L: the limiter screens u^L_i / a_i +-
    # dF_ij against the bounds over a_i, the oracle solves every substate
    mesh, sch, w, _, _ = _limiter_states("jump", elem)
    rng = np.random.default_rng(5)
    RL, lam = sch.low_residual(w, 0.0)
    dt = float((mesh.mass / (2 * lam)).min())
    uLnew = w + dt * RL / mesh.mass[..., None]
    dF = sch.pair_differences(w)
    own = np.stack([uLnew[..., 0], internal_energy(uLnew)])
    ends = _substates(mesh, uLnew, dF, dt)
    lo = np.full(own.shape, np.inf)
    for e, sub in ends:
        for p, node in enumerate(e):
            for c, x in enumerate((sub[:, p, 0], internal_energy(sub[:, p]))):
                lo[c, :, node] = np.minimum(lo[c, :, node], x)
    ulps = 2.0 ** -52 * rng.integers(-4, 5, lo.shape)
    near = (rng.random(lo.shape) < 0.5) & (lo > 0.1 * own) & (lo <= own)
    assert np.any(near[0]) and np.any(near[1])
    b = np.where(near, np.minimum(lo * (1.0 + ulps), own), 0.1 * own)
    bounds = Bounds(b[0], b[1])
    calls = _count_solves(monkeypatch)
    out, rep = _convex(ConvexLimiter(mesh), uLnew, dF, dt, bounds)
    ref, l_ref = convex_limit_ref(mesh, uLnew, dF, dt, bounds)
    scale = np.abs(ref).max(axis=(0, 1))
    assert np.all(np.abs(out - ref).max(axis=(0, 1)) <= 1e-14 * scale)
    assert np.any(l_ref < 1.0)
    assert np.abs(rep.l_elem - l_ref).max() <= 1e-14
    # the screen sends to solve_l the substates the quotient test puts
    # outside, but for those within the rounding of rho e of the bound
    outside = ties = 0
    for e, sub in ends:
        rhoe, lim = internal_energy(sub), b[1][:, e]
        outside += np.count_nonzero((sub[..., 0] < b[0][:, e]) | (rhoe < lim))
        kin = 0.5 * np.sum(sub[..., 1:-1] ** 2, axis=-1) / sub[..., 0]
        ties += np.count_nonzero(np.abs(rhoe - lim)
                                 <= 1e-14 * (np.abs(sub[..., -1]) + kin))
    assert outside > 0 and len(calls) == 1
    assert abs(calls[0][0] - outside) <= ties


# ---------------------------------------------------------------------------
# shock indicator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elem", ["line", "quad"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_shock_indicator_constant_element(elem, N):
    # a constant state has no energy above the constant mode at any N
    ops = build_ops(elem, N)
    prim = np.array([1.0, 0.2, 0.1, 1.0][:ops.dim + 1] + [1.0])
    u = np.broadcast_to(primitive_to_conserved(prim, GAS),
                        (5, ops.n_nodes, ops.dim + 2)).copy()
    xi = shock_indicator(components(u), ops, GAS)
    assert np.all(xi == 1.0)


@pytest.mark.parametrize("elem", ["line", "quad", "tri"])
def test_shock_indicator_smooth_vs_rough(elem):
    ops = build_ops(elem, 3)
    x = ops.nodes[:, 0]
    nvar = ops.dim + 2
    prim_smooth = np.empty((1, ops.n_nodes, nvar))
    prim_smooth[..., 0] = 1.0 + 0.3 * x
    prim_smooth[..., 1:-1] = 0.0
    prim_smooth[..., -1] = 1.0
    u = primitive_to_conserved(prim_smooth, GAS)
    assert shock_indicator(components(u), ops, GAS)[0] == 1.0

    prim_rough = prim_smooth.copy()
    prim_rough[..., 0] = np.where(x > 0, 2.0, 1.0)
    u = primitive_to_conserved(prim_rough, GAS)
    assert shock_indicator(components(u), ops, GAS)[0] == 0.5


def test_shock_indicator_logistic_midpoint():
    # element whose top-mode energy sits exactly at the threshold
    ops = build_ops("line", 4)
    N = ops.degree
    T = 0.5 * 10.0 ** (-1.8 * (N + 1) ** 0.25)
    # build nodal values from modal coefficients directly
    V = ops.vander
    deg = ops.mode_degree
    coeff = np.zeros(V.shape[1])
    coeff[0] = 1.0
    top = deg == N
    # Set top-mode energy fraction = T: e/(1+e) = T
    e = T / (1 - T)
    coeff[np.argmax(top)] = np.sqrt(e)
    q = V @ coeff
    # invert rho p = q with p = 1: rho = q (keep positive)
    assert q.min() > 0
    prim = np.zeros((1, ops.n_nodes, 3))
    prim[..., 0] = q
    prim[..., -1] = 1.0
    u = primitive_to_conserved(prim, GAS)
    xi = shock_indicator(components(u), ops, GAS)[0]
    # alpha at E = T is 1/2 but the sub-mode ratio can only raise E;
    # accept the clip window
    assert 0.5 <= xi <= 0.75
