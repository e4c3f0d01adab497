"""State algebra: entropy pair, two-point fluxes, wavespeed bounds,
viscous fluxes, boundary exterior states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import euler_flux
from posdg.physics import (
    GasParams,
    conserved_to_primitive,
    davis_wavespeed,
    ec_fluxes,
    entropy,
    entropy_to_conserved,
    entropy_vars,
    internal_energy,
    is_admissible,
    log_mean,
    mirror_state,
    noslip_state,
    pressure,
    primitive_to_conserved,
    viscous_sigma,
    wall_riemann_state,
    zhang_beta,
)
from posdg.workspace import Workspace

GAS = GasParams(gamma=1.4)

pos = st.floats(min_value=1e-3, max_value=1e3)
vel = st.floats(min_value=-50.0, max_value=50.0)


def _ec_fluxes(uL, uR):
    """The two-point flux along each coordinate axis, one array per axis,
    of variable-last states; the kernel takes them component first."""
    uL, uR = (np.moveaxis(np.asarray(a, dtype=float), -1, 0) for a in (uL, uR))
    return tuple(np.moveaxis(ec_fluxes(uL, uR, e, GAS, Workspace()), 0, -1)
                 for e in np.eye(len(uL) - 2))


def make_state(rho, uvel, vvel, p, dim=2):
    if dim == 1:
        return primitive_to_conserved(np.array([rho, uvel, p]), GAS)
    return primitive_to_conserved(np.array([rho, uvel, vvel, p]), GAS)


# ---------------------------------------------------------------------------
# conversions and the entropy pair
# ---------------------------------------------------------------------------

@given(pos, vel, vel, pos)
@settings(max_examples=200, deadline=None)
def test_primitive_roundtrip(rho, u, v, p):
    # pressure recovery subtracts the kinetic energy, so the achievable
    # absolute accuracy scales with the total energy
    prim = np.array([rho, u, v, p])
    w = primitive_to_conserved(prim, GAS)
    back = conserved_to_primitive(w, GAS)
    tol = 1e-12 + 1e-11 * abs(w[-1])
    assert np.abs(back - prim).max() < tol


@given(pos, vel, vel, pos)
@settings(max_examples=200, deadline=None)
def test_entropy_roundtrip(rho, u, v, p):
    # the physical-entropy reconstruction cancels terms of size
    # q = kinetic / internal, so precision degrades like eps * q * E
    w = make_state(rho, u, v, p)
    back = entropy_to_conserved(entropy_vars(w, GAS), GAS)
    q = 1.0 + 0.5 * (w[1] ** 2 + w[2] ** 2) / w[0] / internal_energy(w)
    tol = 1e-11 + 100 * np.finfo(float).eps * q * np.abs(w).max()
    assert np.abs(back - w).max() < tol


def test_entropy_roundtrip_tight():
    rng = np.random.default_rng(21)
    for _ in range(100):
        prim = np.array([rng.uniform(0.05, 20), rng.uniform(-3, 3),
                         rng.uniform(-3, 3), rng.uniform(0.05, 20)])
        w = primitive_to_conserved(prim, GAS)
        back = entropy_to_conserved(entropy_vars(w, GAS), GAS)
        assert np.abs(back - w).max() < 1e-10 * max(np.abs(w).max(), 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_vars_are_entropy_gradient(dim):
    rng = np.random.default_rng(42)
    for _ in range(20):
        prim = np.concatenate([[rng.uniform(0.2, 3)],
                               rng.uniform(-2, 2, dim),
                               [rng.uniform(0.2, 3)]])
        u = primitive_to_conserved(prim, GAS)
        v = entropy_vars(u, GAS)
        for i in range(dim + 2):
            h = 1e-6 * max(abs(u[i]), 1.0)
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd = (entropy(up, GAS) - entropy(um, GAS)) / (2 * h)
            assert abs(fd - v[i]) < 5e-6 * max(abs(v[i]), 1.0)


def test_internal_energy_and_admissibility():
    u = make_state(1.0, 3.0, -4.0, 2.0)
    assert abs(internal_energy(u) - 2.0 / (GAS.gamma - 1.0)) < 1e-13
    assert is_admissible(u)
    bad = u.copy()
    bad[-1] = 0.5 * (u[1] ** 2 + u[2] ** 2) / u[0]  # zero internal energy
    assert not is_admissible(bad)
    assert not is_admissible(np.array([-1.0, 0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# logarithmic mean
# ---------------------------------------------------------------------------

@given(pos, pos)
@settings(max_examples=300, deadline=None)
def test_log_mean_between(a, b):
    lm = float(log_mean(a, b, Workspace()))
    lo, hi = min(a, b), max(a, b)
    assert lo - 1e-12 * hi <= lm <= hi + 1e-12 * hi
    assert abs(float(log_mean(a, a, Workspace())) - a) < 1e-13 * a


def test_log_mean_matches_exact_near_and_far_from_equal():
    # near-equal and far-apart arguments against extended precision, on the
    # one formula log_mean uses at every separation
    a = 1.0
    for delta in [1e-9, 1e-6, 1e-4, 1e-2, 0.5]:
        b = a + delta
        exact = float((np.longdouble(a) - np.longdouble(b))
                      / (np.log(np.longdouble(a)) - np.log(np.longdouble(b))))
        assert abs(float(log_mean(a, b, Workspace())) - exact) < 1e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_log_mean_is_accurate_to_an_ulp_and_symmetric():
    # the reference is the same formula in long double (64-bit mantissa):
    # ratios a / b from 1 + 2^-52 to 1e10, the smallest a few ulps apart,
    # magnitudes over ten decades, a = b, and either argument the larger
    rng = np.random.default_rng(2201)
    n = 6000
    ratio = np.concatenate([
        np.ones(200),
        1.0 + rng.integers(1, 9, 1800) * 2.0 ** -52,
        1.0 + 10.0 ** rng.uniform(np.log10(2.0 ** -52), 10.0, n - 2000)])
    b = 10.0 ** rng.uniform(-5.0, 5.0, n)
    a = b * ratio
    swap = rng.random(n) < 0.5
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    A, B = a.astype(np.longdouble), b.astype(np.longdouble)
    gap = np.abs(A - B)
    with np.errstate(invalid="ignore"):
        ref = np.where(A == B, A, gap / np.log1p(gap / np.minimum(A, B)))
    lm = log_mean(a, b, Workspace())
    err = np.abs((lm.astype(np.longdouble) - ref) / ref).astype(float)
    assert err.max() <= 1e-15, err.max()
    assert np.array_equal(lm, log_mean(b, a, Workspace()))
    assert np.array_equal(lm[a == b], a[a == b])


def test_log_mean_of_equal_arguments_is_exact_over_the_stated_range():
    # the floor min(a, b) 2^-60 on |a - b| is exact from 2^-962 up, so
    # log1p(2^-60) = 2^-60 and the quotient returns a itself
    rng = np.random.default_rng(2022)
    a = np.concatenate([
        2.0 ** rng.uniform(-962.0, np.log2(1e300), 20000),
        [2.0 ** -962, np.nextafter(2.0 ** -962, 1.0), 1.0, 1e300]])
    b = a.copy()
    assert np.array_equal(log_mean(a, b, Workspace()), a)
    assert np.array_equal(log_mean(b, a, Workspace()), a)


# ---------------------------------------------------------------------------
# entropy-conservative fluxes
# ---------------------------------------------------------------------------

def random_states(rng, n, dim):
    prim = np.empty((n, dim + 2))
    prim[:, 0] = rng.uniform(1e-2, 10, n)
    prim[:, 1:-1] = rng.uniform(-5, 5, (n, dim))
    prim[:, -1] = rng.uniform(1e-2, 10, n)
    return primitive_to_conserved(prim, GAS)


@pytest.mark.parametrize("dim", [1, 2])
def test_ec_flux_consistency(dim):
    rng = np.random.default_rng(7)
    u = random_states(rng, 200, dim)
    fs = _ec_fluxes(u, u)
    fe = tuple(f.T for f in euler_flux(u.T, GAS))
    for k in range(dim):
        assert np.abs(fs[k] - fe[k]).max() < 1e-11 * max(np.abs(fe[k]).max(), 1)


@pytest.mark.parametrize("dim", [1, 2])
def test_ec_flux_symmetry(dim):
    rng = np.random.default_rng(8)
    uL = random_states(rng, 200, dim)
    uR = random_states(rng, 200, dim)
    fab = _ec_fluxes(uL, uR)
    fba = _ec_fluxes(uR, uL)
    for k in range(dim):
        scale = np.abs(fab[k]).max()
        assert np.abs(fab[k] - fba[k]).max() < 1e-12 * scale


@pytest.mark.parametrize("dim", [1, 2])
def test_ec_flux_tadmor_identity(dim):
    # (v_L - v_R) . f_k == psi_k(u_L) - psi_k(u_R) with psi_k = (g-1) rho u_k
    rng = np.random.default_rng(9)
    uL = random_states(rng, 5000, dim)
    uR = random_states(rng, 5000, dim)
    vL, vR = entropy_vars(uL, GAS), entropy_vars(uR, GAS)
    psiL, psiR = ((GAS.gamma - 1.0) * a[:, 1:-1] for a in (uL, uR))
    fs = _ec_fluxes(uL, uR)
    for k in range(dim):
        lhs = np.sum((vL - vR) * fs[k], axis=-1)
        rhs = psiL[:, k] - psiR[:, k]
        scale = np.maximum(np.abs(lhs), 1.0)
        assert np.abs(lhs - rhs).max() / scale.max() < 1e-11


def test_ec_flux_broadcasts():
    rng = np.random.default_rng(10)
    u = random_states(rng, 6, 2).reshape(2, 3, 4)
    f_pair = _ec_fluxes(u[:, :, None, :], u[:, None, :, :])
    assert f_pair[0].shape == (2, 3, 3, 4)
    f_alt = _ec_fluxes(u[0, 1], u[0, 2])
    assert np.allclose(f_pair[0][0, 1, 2], f_alt[0])


# ---------------------------------------------------------------------------
# wavespeeds
# ---------------------------------------------------------------------------

def test_davis_wavespeed():
    u = make_state(1.0, 2.0, -1.0, 1.0)
    c = np.sqrt(GAS.gamma)
    n = np.array([1.0, 0.0])
    assert abs(davis_wavespeed(u, n, GAS, Workspace()) - (2.0 + c)) < 1e-13
    w = make_state(1.0, 0.0, -5.0, 1.0)
    assert abs(davis_wavespeed(w, np.array([0.0, 1.0]), GAS, Workspace())
               - (5.0 + c)) < 1e-13


def test_zhang_beta_frozen_value():
    u = make_state(1.0, 0.0, 0.0, 1.0)
    n = np.array([1.0, 0.0])
    val = zhang_beta(u, None, n, GAS, eps0=0.0, ws=Workspace())
    assert abs(val - 1.0 / np.sqrt(5.0)) < 1e-13
    assert zhang_beta(u, None, n, GAS, eps0=1e-3, ws=Workspace()) > val


def test_zhang_beta_dominates_normal_speed():
    rng = np.random.default_rng(12)
    u = random_states(rng, 500, 2)
    n = rng.normal(size=(500, 2))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    beta = zhang_beta(u.T, None, n.T, GAS, ws=Workspace())
    un = np.abs(np.sum(u[:, 1:3] * n, axis=1) / u[:, 0])
    assert np.all(beta >= un)


@pytest.mark.parametrize("gamma", [1.01, 1.4, 5.0 / 3.0, 3.0])
def test_davis_bounds_inviscid_zhang_beta(gamma):
    # with sigma = 0, beta - eps0 = |u.n| + sqrt((gamma-1)/(2 gamma)) c, so
    # the low-order scheme's max(beta, Davis) is Davis bit for bit and the
    # inviscid wavespeeds skip beta; states from near vacuum to Mach 1e6
    gas = GasParams(gamma=gamma)
    rng = np.random.default_rng(int(100 * gamma))
    m = 20000
    rho = 10.0 ** rng.uniform(-8, 8, m)
    e = 10.0 ** rng.uniform(-10, 8, m)             # rho e / rho
    c = np.sqrt(gamma * (gamma - 1.0) * e)
    mach = np.where(rng.random(m) < 0.1, 0.0, 10.0 ** rng.uniform(-6, 6, m))
    theta = rng.uniform(0.0, 2.0 * np.pi, m)
    vel = (mach * c)[:, None] * np.stack([np.cos(theta), np.sin(theta)], -1)
    prim = np.column_stack([rho, vel, (gamma - 1.0) * rho * e])
    u = primitive_to_conserved(prim, gas)
    assert np.all(is_admissible(u))
    phi = rng.uniform(0.0, 2.0 * np.pi, m)
    n = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    u, n = u.T, n.T        # the kernels take both component first
    davis = davis_wavespeed(u, n, gas, Workspace())
    assert np.array_equal(
        np.maximum(zhang_beta(u, None, n, gas, ws=Workspace()), davis),
                          davis)


def test_zhang_beta_is_even_in_n():
    # the low-order scheme shares one wavespeed per (node, +-direction)
    gas = GasParams(gamma=1.4, mu=0.1, Pr=0.75)
    rng = np.random.default_rng(5)
    u = random_states(rng, 500, 2)
    v = entropy_vars(u, gas)
    th = tuple(rng.normal(size=(500, 4)) for _ in range(2))
    n = rng.normal(size=(500, 2))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    n[:50, 0] = 0.0
    # the kernels take states, gradients and directions component first
    u, v, th, n = u.T, v.T, tuple(t.T for t in th), n.T
    sig = viscous_sigma(v, th, gas)
    for s in (None, sig):
        assert np.array_equal(zhang_beta(u, s, n, gas, ws=Workspace()),
                              zhang_beta(u, s, -n, gas, ws=Workspace()))
    assert np.array_equal(davis_wavespeed(u, n, gas, Workspace()),
                          davis_wavespeed(u, -n, gas, Workspace()))


def test_zhang_beta_viscous_increases():
    gas = GasParams(gamma=1.4, mu=0.1, Pr=0.75)
    u = make_state(1.0, 0.5, -0.2, 2.0)
    v = entropy_vars(u, gas)
    th = (np.array([0.0, 0.3, -0.1, 0.2]), np.array([0.0, -0.2, 0.4, 0.1]))
    sig = viscous_sigma(v, th, gas)
    n = np.array([0.6, 0.8])
    b0 = zhang_beta(u, None, n, gas, ws=Workspace())
    b1 = zhang_beta(u, sig, n, gas, ws=Workspace())
    assert b1 >= b0 - 1e-14
    assert np.isfinite(b1)


# ---------------------------------------------------------------------------
# viscous fluxes
# ---------------------------------------------------------------------------

def _assemble_K(v, gas, dim):
    n = dim + 2
    K = np.zeros((dim * n, dim * n))
    for j in range(dim * n):
        th = np.zeros(dim * n)
        th[j] = 1.0
        sig = viscous_sigma(v, tuple(th[i * n:(i + 1) * n] for i in range(dim)), gas)
        for i in range(dim):
            K[i * n:(i + 1) * n, j] = sig[i]
    return K


@pytest.mark.parametrize("dim", [1, 2])
def test_viscous_K_symmetric_psd(dim):
    gas = GasParams(gamma=1.4, mu=0.025, Pr=0.72)
    rng = np.random.default_rng(13)
    for _ in range(20):
        prim = np.concatenate([[rng.uniform(0.2, 3)],
                               rng.uniform(-2, 2, dim),
                               [rng.uniform(0.2, 3)]])
        u = primitive_to_conserved(prim, gas)
        v = entropy_vars(u, gas)
        K = _assemble_K(v, gas, dim)
        assert np.abs(K - K.T).max() < 1e-12 * max(np.abs(K).max(), 1)
        assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() > -1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_viscous_dissipation_nonnegative(dim):
    gas = GasParams(gamma=1.4, mu=0.01, Pr=0.75)
    rng = np.random.default_rng(14)
    n = dim + 2
    for _ in range(50):
        prim = np.concatenate([[rng.uniform(0.2, 3)],
                               rng.uniform(-2, 2, dim),
                               [rng.uniform(0.2, 3)]])
        v = entropy_vars(primitive_to_conserved(prim, gas), gas)
        th = tuple(rng.normal(size=n) for _ in range(dim))
        sig = viscous_sigma(v, th, gas)
        diss = sum(float(th[k] @ sig[k]) for k in range(dim))
        assert diss > -1e-12


def test_viscous_sigma_matches_physical_stress():
    # manufactured velocity/energy fields: sigma from entropy-variable
    # gradients must equal the Newtonian stress and Fourier heat flux
    gas = GasParams(gamma=1.4, mu=0.005, Pr=0.7)
    mu, kap = gas.mu, gas.gamma * gas.mu / gas.Pr

    def prim_field(x, y):
        rho = 1.0 + 0.2 * np.sin(x) * np.cos(y)
        uvel = 0.3 * np.cos(x) + 0.1 * y
        vvel = -0.2 * np.sin(y) + 0.05 * x * x
        p = 1.5 + 0.3 * np.cos(x + y)
        return np.stack([rho, uvel, vvel, p], axis=-1)

    x0, y0, h = 0.4, -0.3, 1e-5
    vfun = lambda x, y: entropy_vars(primitive_to_conserved(prim_field(x, y), gas), gas)
    v = vfun(x0, y0)
    thx = (vfun(x0 + h, y0) - vfun(x0 - h, y0)) / (2 * h)
    thy = (vfun(x0, y0 + h) - vfun(x0, y0 - h)) / (2 * h)
    sx, sy = viscous_sigma(v, (thx, thy), gas)

    pf = lambda x, y: prim_field(x, y)
    dpdx = (pf(x0 + h, y0) - pf(x0 - h, y0)) / (2 * h)
    dpdy = (pf(x0, y0 + h) - pf(x0, y0 - h)) / (2 * h)
    u_x, v_x = dpdx[1], dpdx[2]
    u_y, v_y = dpdy[1], dpdy[2]
    prim = pf(x0, y0)
    e = prim[3] / ((gas.gamma - 1) * prim[0])
    efun = lambda x, y: pf(x, y)[3] / ((gas.gamma - 1) * pf(x, y)[0])
    e_x = (efun(x0 + h, y0) - efun(x0 - h, y0)) / (2 * h)
    e_y = (efun(x0, y0 + h) - efun(x0, y0 - h)) / (2 * h)

    tau_xx = mu * (4 / 3 * u_x - 2 / 3 * v_y)
    tau_yy = mu * (4 / 3 * v_y - 2 / 3 * u_x)
    tau_xy = mu * (u_y + v_x)
    expect_x = np.array([0, tau_xx, tau_xy,
                         prim[1] * tau_xx + prim[2] * tau_xy + kap * e_x])
    expect_y = np.array([0, tau_xy, tau_yy,
                         prim[1] * tau_xy + prim[2] * tau_yy + kap * e_y])
    assert np.abs(sx - expect_x).max() < 1e-8
    assert np.abs(sy - expect_y).max() < 1e-8


def test_viscous_sigma_1d():
    gas = GasParams(gamma=1.4, mu=0.01, Pr=0.75)
    u = primitive_to_conserved(np.array([1.0, 0.5, 1.0]), gas)
    v = entropy_vars(u, gas)
    h = 1e-6
    # gradient of v for a pure velocity gradient du/dx = 2
    du = 2.0
    up = primitive_to_conserved(np.array([1.0, 0.5 + du * h, 1.0]), gas)
    um = primitive_to_conserved(np.array([1.0, 0.5 - du * h, 1.0]), gas)
    th = (entropy_vars(up, gas) - entropy_vars(um, gas)) / (2 * h)
    sig, = viscous_sigma(v, (th,), gas)
    assert abs(sig[0]) < 1e-14
    assert abs(sig[1] - 4 / 3 * gas.mu * du) < 1e-8
    assert abs(sig[2] - 0.5 * 4 / 3 * gas.mu * du) < 1e-8


# ---------------------------------------------------------------------------
# boundary exterior states
# ---------------------------------------------------------------------------

def test_mirror_state():
    u = make_state(1.2, 1.0, 2.0, 1.5)
    n = np.array([1.0, 0.0])
    w = mirror_state(u, n)
    assert w[0] == u[0] and w[3] == u[3]
    assert w[1] == -u[1] and w[2] == u[2]
    assert np.allclose(mirror_state(w, n), u)
    nd = np.array([0.6, 0.8])
    w2 = mirror_state(u, nd)
    assert abs(np.dot(w2[1:3], nd) + np.dot(u[1:3], nd)) < 1e-13


def test_wall_riemann_pressure_branches():
    n = np.array([1.0, 0.0])
    u0 = make_state(1.0, 0.0, 0.3, 1.0)
    w0 = wall_riemann_state(u0, n, GAS)
    assert abs(pressure(w0, GAS) - 1.0) < 1e-12  # resting flow keeps p
    u_in = make_state(1.0, 2.0, 0.0, 1.0)   # running into the wall
    u_out = make_state(1.0, -2.0, 0.0, 1.0)  # leaving the wall
    assert pressure(wall_riemann_state(u_in, n, GAS), GAS) > 1.0
    assert pressure(wall_riemann_state(u_out, n, GAS), GAS) < 1.0
    w = wall_riemann_state(u_in, n, GAS)
    assert w[0] == u_in[0]
    assert w[1] == -u_in[1] and w[2] == u_in[2]
    assert is_admissible(w)


def test_wall_riemann_strong_vacuum_expansion():
    n = np.array([1.0, 0.0])
    u = make_state(1.0, -50.0, 0.0, 1e-6)
    w = wall_riemann_state(u, n, GAS)
    assert is_admissible(w)
    assert pressure(w, GAS) > 0


def test_noslip_state():
    u = make_state(1.0, 2.0, -3.0, 1.0)
    w = noslip_state(u)
    assert np.allclose(w[1:3], -u[1:3])
    assert w[0] == u[0] and w[3] == u[3]
    assert abs(internal_energy(w) - internal_energy(u)) < 1e-14
