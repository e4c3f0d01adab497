"""The pointwise kernels agree bit for bit with their reduction-based oracles.

The solver writes every sum over the short momentum axis out component by
component. Over an axis of length 1 or 2 that adds the same products in the
same order as ``np.sum`` / ``np.einsum``, so the results must be equal, not
merely close. States are random admissible states in 1D and 2D, component
first as the solver holds them: (nvar, ...), and the direction ``n`` is
(dim, ...) in every broadcast shape the solver uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bisect_l,
    davis_wavespeed_ref,
    ec_flux_k_ref,
    ec_fluxes_prims_ref,
    ec_prims_ref,
    euler_flux,
    internal_energy_ref,
    log_mean_ref,
    mirror_state_ref,
    sigma_n_ref,
    solve_l_ref,
    viscous_sigma_ref,
    wall_riemann_state_ref,
    zhang_beta_ref,
)
from posdg.limiter import Bounds, _outside, solve_l
from posdg.physics import (
    GasParams,
    davis_wavespeed,
    ec_fluxes_prims,
    ec_prims,
    entropy_vars_cf,
    internal_energy,
    internal_energy_cf,
    log_mean,
    mirror_state,
    normal_flux,
    primitive_to_conserved_cf,
    viscous_sigma,
    wall_riemann_state,
    zhang_beta,
)
from posdg.workspace import Workspace

GAS = GasParams(gamma=1.4)

# (leading shape of the states, shape of n without its last axis): a single
# direction for all states, one per pair broadcast over elements, one per
# state on a flat array of face slots
SHAPES = [((3, 5), ()), ((3, 5), (5,)), ((7,), (7,))]

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "dim": st.sampled_from([1, 2]),
    "shape": st.sampled_from(SHAPES),
    "unit": st.booleans(),
    "viscous": st.booleans(),
})


def _states(rng, lead, dim):
    """Admissible states spanning near-vacuum to fast flow, (nvar,) + lead."""
    prim = np.empty((dim + 2,) + lead)
    prim[0] = 10.0 ** rng.uniform(-6, 2, lead)
    prim[1:-1] = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(dim,) + lead)
    prim[-1] = 10.0 ** rng.uniform(-8, 2, lead)
    return primitive_to_conserved_cf(prim, GAS)


def _setup(case):
    rng = np.random.default_rng(case["seed"])
    dim = case["dim"]
    lead, nlead = case["shape"]
    u = _states(rng, lead, dim)
    n = rng.normal(size=(dim,) + nlead)
    if case["unit"]:
        n /= np.linalg.norm(n, axis=0, keepdims=True)
    sigma = None
    if case["viscous"]:
        sigma = tuple(rng.normal(size=(dim + 2,) + lead) for _ in range(dim))
    return rng, u, n, sigma


def _equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b)


@given(cases)
@settings(max_examples=120, deadline=None)
def test_state_kernels_match_oracles(case):
    rng, u, n, sigma = _setup(case)
    u2 = _states(rng, u.shape[1:], case["dim"])
    assert _equal(internal_energy_cf(u), internal_energy_ref(u))
    assert _equal(ec_prims(u, GAS), ec_prims_ref(u, GAS))
    for s in (u, u2):
        assert _equal(davis_wavespeed(s, n, GAS, Workspace()),
                      davis_wavespeed_ref(s, n, GAS))
    sn = sigma_n_ref(sigma, n)
    assert _equal(zhang_beta(u, sn, n, GAS, ws=Workspace()),
                  zhang_beta_ref(u, sn, n, GAS))
    assert _equal(zhang_beta(u, sn, n, GAS, eps0=0.0, ws=Workspace()),
                  zhang_beta_ref(u, sn, n, GAS, eps0=0.0))
    assert _equal(mirror_state(u, n), mirror_state_ref(u, n))
    prims = [ec_prims_ref(x, GAS) for x in (u, u2)]
    assert _equal(ec_fluxes_prims(*prims, n, GAS, Workspace()),
                  ec_fluxes_prims_ref(*prims, n, GAS))
    assert _equal(wall_riemann_state(u, n, GAS),
                  wall_riemann_state_ref(u, n, GAS))


@given(cases)
@settings(max_examples=60, deadline=None)
def test_kernels_given_rhoe_and_p_equal_their_deriving_paths(case):
    # the stage kernels hand these kernels the rho e and p of the stage's
    # node table, formed once per stage; each must equal the path that
    # forms them from the states itself, bit for bit
    _, u, n, sigma = _setup(case)
    rhoe = internal_energy_cf(u)
    p = np.multiply(GAS.gamma - 1.0, rhoe)
    sn = sigma_n_ref(sigma, n)
    assert _equal(zhang_beta(u, sn, n, GAS, rhoe=rhoe, p=p, ws=Workspace()),
                  zhang_beta(u, sn, n, GAS, ws=Workspace()))
    out = np.empty((len(u) + 1,) + u.shape[1:])
    assert ec_prims(u, GAS, p, out) is out
    assert _equal(out, ec_prims(u, GAS))
    assert _equal(entropy_vars_cf(u, GAS, rhoe=rhoe, p=p),
                  entropy_vars_cf(u, GAS))
    assert _equal(wall_riemann_state(u, n, GAS, p),
                  wall_riemann_state(u, n, GAS))


@given(cases)
@settings(max_examples=60, deadline=None)
def test_viscous_sigma_matches_oracle(case):
    # the stress's off-diagonal entry, formed once, is the full matrix's
    # entry on both sides of the diagonal, bit for bit
    rng, u, _, _ = _setup(case)
    gas = GasParams(gamma=1.4, mu=10.0 ** rng.uniform(-4, 0), Pr=0.75)
    v = entropy_vars_cf(u, gas)
    th = rng.normal(size=(case["dim"],) + u.shape)
    sig = viscous_sigma(v, th, gas)
    for a, ref in zip(sig, viscous_sigma_ref(v, th, gas)):
        assert _equal(a, ref)
    if case["dim"] == 2:
        assert _equal(sig[0][2], sig[1][1])


def _segments(rng, uL, regime):
    """(P, rho_min, rhoe_min) for the segments uL + l P of ``regime``."""
    nvar, lead = len(uL), uL.shape[1:]
    rhoe = internal_energy_cf(uL)
    if regime == "active":
        # large increments against bounds just below the state; the first
        # state is driven through zero, so at least one bound binds
        P = rng.normal(size=uL.shape) * np.abs(uL) * 10.0 ** rng.uniform(-1, 1)
        P.reshape(nvar, -1)[:, 0] = -2.0 * uL.reshape(nvar, -1)[:, 0]
        return (P, uL[0] * rng.uniform(0.1, 0.99, lead),
                rhoe * rng.uniform(0.1, 0.99, lead))
    # uL + l P = (1 + l s) uL keeps at least half of rho and rhoe
    return rng.uniform(-0.5, 0.5, lead) * uL, 0.1 * uL[0], 0.1 * rhoe


@given(cases, st.sampled_from(["active", "inactive"]))
@settings(max_examples=120, deadline=None)
def test_solve_l_matches_oracle(case, regime):
    rng, uL, _, _ = _setup(case)
    P, rho_min, rhoe_min = _segments(rng, uL, regime)
    l = solve_l(uL, P, Bounds(rho_min, rhoe_min))
    assert _equal(l, solve_l_ref(uL, P, rho_min, rhoe_min))
    assert np.any(l < 1.0) if regime == "active" else np.all(l == 1.0)


def test_solve_l_takes_the_crossing_under_dominant_kinetic_energy():
    # the active segments above, 2D, 400 seeds x 200 states, of which about
    # 46k have an endpoint outside the bounds. Where the kinetic energy of
    # uL is 1e9 x its internal energy or more, b > 0 and c > 0 put the
    # energy quadratic's other root at a roundoff-sized negative l, which
    # is not the crossing: l agrees with the bisection oracle there. No l
    # leaves a state with rho <= 0 or rhoe <= 0.
    draws = []
    for seed in range(400):
        rng = np.random.default_rng(seed)
        uL = _states(rng, (200,), 2)
        P, rho_min, rhoe_min = _segments(rng, uL, "active")
        out = _outside(uL + P, rho_min, rhoe_min, Workspace())
        draws.append((uL[:, out], P[:, out], rho_min[out], rhoe_min[out]))
    uL, P, rho_min, rhoe_min = (np.concatenate(x, axis=-1)
                                for x in zip(*draws))
    assert uL.shape[1] > 40000
    l = solve_l(uL, P, Bounds(rho_min, rhoe_min))
    u = uL + l * P
    assert np.all(u[0] > 0.0) and np.all(internal_energy_cf(u) > 0.0)
    kin = 0.5 * np.sum(uL[1:-1] ** 2, axis=0) / uL[0]
    fast = np.flatnonzero(kin >= 1e9 * internal_energy_cf(uL))
    assert len(fast) > 1000
    ref = [bisect_l(uL[:, i], P[:, i], rho_min[i], rhoe_min[i]) for i in fast]
    assert np.max(np.abs(l[fast] - ref)) <= 1e-6


@pytest.mark.parametrize("regime", ["active", "inactive"])
@pytest.mark.parametrize("dim", [1, 2])
def test_screen_matches_the_quotient_test_near_the_bounds(dim, regime):
    # the endpoints uL + P of test_solve_l_matches_oracle's segments, with
    # rho_min and rhoe_min a few ulps either side of the endpoint's own rho
    # and rhoe where those are positive; the screen tests rho (E - rhoe_min)
    # >= |m|^2 / 2 in place of rhoe >= rhoe_min, so the two may part only
    # where rhoe - rhoe_min is within the rounding of rhoe itself
    rng = np.random.default_rng(10 * dim + (regime == "active"))
    n = 4000
    uL = _states(rng, (n,), dim)
    P, rho_min, rhoe_min = _segments(rng, uL, regime)
    end = uL + P
    rhoe = internal_energy_cf(end)
    ulps = 2.0 ** -52 * rng.integers(-4, 5, (2, n))
    near = rng.random((2, n)) < 0.5
    rho_min = np.where(near[0] & (end[0] > 0), end[0] * (1 + ulps[0]),
                       rho_min)
    rhoe_min = np.where(near[1] & (rhoe > 0), rhoe * (1 + ulps[1]), rhoe_min)
    outside = np.zeros(n, bool)
    outside[_outside(end, rho_min, rhoe_min, Workspace())] = True
    quotient = (end[0] >= rho_min) & (rhoe >= rhoe_min)
    kin = 0.5 * np.sum(end[1:-1] ** 2, axis=0) / np.abs(end[0])
    tie = (np.abs(rhoe - rhoe_min)
           <= 1e-14 * (np.abs(end[-1]) + kin + np.abs(rhoe_min)))
    assert np.any(near[1] & (rhoe > 0) & (ulps[1] == 0))
    assert np.array_equal(outside[~tie], ~quotient[~tie])
    # rho is screened exactly as the quotient test screens it
    assert np.all(outside[end[0] < rho_min])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_log_mean_matches_oracle_near_and_far_from_equal(seed):
    # a = b, zeta = ((a - b)/(a + b))^2 a few ulps and a few percent either
    # side of 1e-4, where a series form of the log mean would hand over to
    # the quotient (log_mean has one formula throughout), and far-apart
    # pairs, over ten decades
    rng = np.random.default_rng(seed)
    b = 10.0 ** rng.uniform(-6, 4, 400)
    r = np.concatenate([
        np.zeros(40),
        0.01 * (1.0 + rng.integers(-8, 9, 120) * 2.0 ** -52),
        0.01 * (1.0 + rng.uniform(-0.05, 0.05, 80)),
        10.0 ** rng.uniform(-9, -2, 80),
        rng.uniform(0.02, 0.999, 80)])
    r *= rng.choice([-1.0, 1.0], r.size)
    a = b * (1.0 + r) / (1.0 - r)
    zeta = ((a - b) / (a + b)) ** 2
    assert np.any(zeta < 1e-4) and np.any((zeta >= 1e-4) & (zeta < 1.1e-4))
    assert _equal(log_mean(a, b, Workspace()), log_mean_ref(a, b))
    assert _equal(log_mean(a.reshape(20, 20), b[:20], Workspace()),
                  log_mean_ref(a.reshape(20, 20), b[:20]))
    assert _equal(log_mean(a[0], b[0], Workspace()), log_mean_ref(a[0], b[0]))


@given(cases)
@settings(max_examples=60, deadline=None)
def test_directional_ec_flux_along_a_unit_vector_is_f_k(case):
    rng, u, _, _ = _setup(case)
    u2 = _states(rng, u.shape[1:], case["dim"])
    prims = [ec_prims(x, GAS) for x in (u, u2)]
    for k, e in enumerate(np.eye(case["dim"])):
        assert _equal(ec_fluxes_prims(*prims, e, GAS, Workspace()),
                      ec_flux_k_ref(*prims, k, GAS))


@pytest.mark.parametrize("dim", [1, 2])
def test_directional_ec_flux_is_the_sum_over_directions(dim):
    # along any n the directional flux is sum_k n_k f_k up to the rounding
    # of that sum, relative to each variable's largest flux; on states of
    # moderate Mach number, as the near-vacuum states of the other tests
    # cancel in the energy flux
    rng = np.random.default_rng(dim)
    prims = []
    for _ in range(2):
        prim = np.empty((dim + 2, 400))
        prim[0] = rng.uniform(0.1, 10.0, 400)
        prim[1:-1] = rng.normal(size=(dim, 400))
        prim[-1] = rng.uniform(0.1, 10.0, 400)
        prims.append(ec_prims(primitive_to_conserved_cf(prim, GAS), GAS))
    n = rng.normal(size=(dim, 400))
    total = sum(n[k] * ec_flux_k_ref(*prims, k, GAS) for k in range(dim))
    err = np.abs(ec_fluxes_prims(*prims, n, GAS, Workspace()) - total)
    assert np.all(err.max(axis=1) <= 1e-14 * np.abs(total).max(axis=1))


@given(cases)
@settings(max_examples=60, deadline=None)
def test_normal_flux_along_a_unit_vector_is_euler_flux(case):
    _, u, _, _ = _setup(case)
    for e, f in zip(np.eye(case["dim"]), euler_flux(u, GAS)):
        assert _equal(normal_flux(u, e, GAS, ws=Workspace()), f)

