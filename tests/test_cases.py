"""Tests for the benchmark catalog.

The exact-solution cases are checked against independent physics oracles:
jump conditions and characteristic identities for the shock tube, total-flux
constancy in the co-moving frame for the viscous profile, and discrete
momentum balance for the vortex. Error norms and the Schlieren transform
are checked on fields with known answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import euler_flux
from posdg.cases import (
    CASES,
    CaseSpec,
    daru_tenaud,
    dmr,
    error_norms,
    get_case,
    isentropic_vortex,
    leblanc,
    schlieren,
    sedov,
    sine_shock,
    viscous_shock,
)
from posdg.physics import (
    conserved_to_primitive,
    entropy_vars,
    is_admissible,
    pressure,
    viscous_sigma,
)

GAMMA_LEB = 5.0 / 3.0


def _bound(case, mesh):
    return case.bind(mesh)


# ---------------------------------------------------------------------------
# registry and global invariants


def test_registry_builds_case_specs():
    for name, ctor in CASES.items():
        case = ctor()
        assert isinstance(case, CaseSpec)
        assert case.dim in (1, 2)
        assert case.t_final > 0 and 0 < case.cfl <= 1


def test_get_case_unknown_name_lists_options():
    with pytest.raises(ValueError, match="leblanc"):
        get_case("not-a-case")


@pytest.mark.parametrize("name", sorted(CASES))
def test_initial_data_admissible_on_all_meshes(name):
    case = get_case(name)
    if case.dim == 1:
        meshes = [case.build_mesh(16, 3)]
    elif name in ("dmr", "daru"):
        meshes = [case.build_mesh(4, 3, "quad")]
    else:
        meshes = [case.build_mesh(4, 3, "quad"), case.build_mesh(4, 3, "tri")]
    for mesh in meshes:
        bound = _bound(case, mesh)
        u0 = bound.ic(mesh.xy)
        assert np.all(is_admissible(u0))
        bound.bcs.validate(mesh.slot_tag)


@pytest.mark.parametrize("name", ["leblanc", "viscous-shock",
                                  "viscous-shock-2d", "vortex"])
def test_exact_solution_sampled_has_zero_error(name):
    case = get_case(name)
    if case.dim == 1:
        mesh = case.build_mesh(12, 3)
    else:
        mesh = case.build_mesh(4, 3, "quad")
    u = case.exact(mesh.xy, case.t_final)
    for p in (1, 2):
        assert error_norms(u, mesh, case, p=p) <= 1e-14


# ---------------------------------------------------------------------------
# shock tube with near-vacuum right state


def _leblanc_prim_at(case, xi, t=0.5):
    xy = (0.33 + xi * t)[:, None]
    return conserved_to_primitive(case.exact(xy[:, None, :], t), case.gas)


def test_leblanc_exact_at_zero_time_is_initial_data():
    case = leblanc()
    mesh = case.build_mesh(20, 2)
    assert np.array_equal(case.exact(mesh.xy, 0.0), case.ic(mesh.xy))
    left = case.ic(np.array([[0.1]]))
    assert left[0, 0] == 1.0
    rho_r = case.ic(np.array([[0.9]]))[0, 0]
    assert rho_r == 1e-3


def test_leblanc_fan_satisfies_characteristic_identities():
    case = leblanc()
    xi = np.linspace(-1.0 / 3.0 + 1e-6, 0.4957, 200)
    prim = _leblanc_prim_at(case, xi)[:, 0, :]
    rho, vel, p = prim[:, 0], prim[:, 1], prim[:, 2]
    c = np.sqrt(GAMMA_LEB * p / rho)
    # inside a left rarefaction the slow characteristic speed equals xi
    assert np.max(np.abs(vel - c - xi)) <= 1e-13
    # and the fan is isentropic with the left state's entropy
    assert np.max(np.abs(p / rho ** GAMMA_LEB - 1.0 / 15.0)) <= 1e-14


def test_leblanc_waves_are_mutually_consistent():
    case = leblanc()
    t = 0.5
    g = GAMMA_LEB

    def cons_at(xi):
        return case.exact(np.array([[[0.33 + xi * t]]]), t)[0, 0]

    # states straddling the right shock satisfy the jump conditions with
    # the tabulated shock speed
    lam3 = 0.829118362533470
    ul, ur = cons_at(lam3 - 1e-9), cons_at(lam3 + 1e-9)
    jump_flux = euler_flux(ul, case.gas)[0] - euler_flux(ur, case.gas)[0]
    jump_u = lam3 * (ul - ur)
    assert np.max(np.abs(jump_flux - jump_u)) <= 1e-12 * np.max(np.abs(jump_u))

    # the fan edge meets the left star state continuously
    lam1 = 0.495784895188979
    dstate = cons_at(lam1 - 1e-12) - cons_at(lam1 + 1e-12)
    assert np.max(np.abs(dstate)) <= 1e-10

    # the fan edge speed is the characteristic speed of the star state
    prim = conserved_to_primitive(cons_at(lam1 + 1e-12), case.gas)
    cstar = np.sqrt(g * prim[2] / prim[0])
    assert abs(prim[1] - cstar - lam1) <= 1e-13

    # velocity and pressure are continuous across the contact
    vstar = 0.621838671391735
    pl = conserved_to_primitive(cons_at(vstar - 1e-9), case.gas)
    pr = conserved_to_primitive(cons_at(vstar + 1e-9), case.gas)
    assert abs(pl[1] - pr[1]) <= 1e-13 and abs(pl[2] - pr[2]) <= 1e-15
    assert pl[0] > pr[0]


def test_leblanc_waves_stay_inside_domain_until_final_time():
    case = leblanc()
    t = case.t_final
    ends = case.exact(np.array([[[0.0]], [[1.0]]]), t)
    assert np.array_equal(ends, case.exact(np.array([[[0.0]], [[1.0]]]), 0.0))


# ---------------------------------------------------------------------------
# traveling viscous shock


def _becker_constants(M0, mu, gas):
    g = gas.gamma
    u_left = 1.0
    u_right = (g - 1.0 + 2.0 / M0 ** 2) / (g + 1.0)
    u_mid = np.sqrt(u_left * u_right)
    kappa = g * gas.mu / gas.Pr
    coef = 2.0 * kappa / (g + 1.0)
    return u_left, u_right, u_mid, coef


def _x_of_u(u, M0, mu, gas):
    u_left, u_right, u_mid, coef = _becker_constants(M0, mu, gas)
    c_l = u_left / (u_left - u_right)
    c_r = u_right / (u_left - u_right)
    return coef * (c_l * np.log((u_left - u) / (u_left - u_mid))
                   - c_r * np.log((u - u_right) / (u_mid - u_right)))


def test_viscous_shock_mach_number_preconditions():
    with pytest.raises(ValueError):
        viscous_shock(M0=0.9)
    with pytest.raises(ValueError):
        viscous_shock(dim=3)


def test_viscous_shock_asymptotic_states():
    case = viscous_shock()
    u_left, u_right, _, _ = _becker_constants(3.0, 0.01, case.gas)
    assert abs(u_right - (0.4 + 2.0 / 9.0) / 2.4) <= 1e-15
    far = case.exact(np.array([[[-40.0]], [[40.0]]]), 0.0)
    prim = conserved_to_primitive(far, case.gas)
    assert abs(prim[0, 0, 1] - (0.2 + u_left)) <= 1e-12
    assert abs(prim[1, 0, 1] - (0.2 + u_right)) <= 1e-12
    # the center of the profile sits at xi = 0 by construction
    mid = conserved_to_primitive(case.exact(np.array([[[0.0]]]), 0.0),
                                 case.gas)
    assert abs(mid[0, 0, 1] - (0.2 + np.sqrt(u_left * u_right))) <= 1e-12


def test_viscous_shock_round_trip_through_implicit_relation():
    # range chosen where the inverse map is well conditioned: in the far
    # tails one ulp of u already moves x by more than the tolerance
    case = viscous_shock()
    x = np.linspace(-0.08, 0.09, 73)
    prim = conserved_to_primitive(case.exact(x[:, None, None], 0.0), case.gas)
    u = prim[..., 1].ravel() - 0.2
    assert np.max(np.abs(_x_of_u(u, 3.0, 0.01, case.gas) - x)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(M0=st.floats(1.05, 30.0), mu=st.floats(1e-4, 0.05))
def test_viscous_shock_round_trip_randomized(M0, mu):
    case = viscous_shock(M0=M0, mu=mu, u_inf=0.0)
    _, _, _, coef = _becker_constants(M0, mu, case.gas)
    x = coef * np.linspace(-3.0, 3.0, 21)
    prim = conserved_to_primitive(case.exact(x[:, None, None], 0.0), case.gas)
    u = prim[..., 1].ravel()
    assert np.max(np.abs(_x_of_u(u, M0, mu, case.gas) - x)) <= 1e-10


@pytest.mark.parametrize("M0,mu", [(3.0, 0.01), (20.0, 0.001)])
def test_viscous_shock_is_steady_in_comoving_frame(M0, mu):
    """Total flux f(U) - u_inf U - sigma must be constant along the profile."""
    u_inf = 0.2
    case = viscous_shock(M0=M0, mu=mu, u_inf=u_inf)
    gas = case.gas
    g = gas.gamma
    u_left, u_right, u_mid, coef = _becker_constants(M0, mu, gas)
    c_l = u_left / (u_left - u_right)
    c_r = u_right / (u_left - u_right)

    xi = coef * np.linspace(-2.5, 2.5, 41)
    U = case.exact(xi[:, None, None], 0.0)[:, 0, :]
    prim = conserved_to_primitive(U, gas)
    u = prim[:, 1] - u_inf
    e = (0.5 / g) * ((g + 1.0) / (g - 1.0) * u_mid ** 2 - u * u)

    # derivative of the inverse profile map, then the chain rule
    dx_du = -coef * (c_l / (u_left - u) + c_r / (u - u_right))
    du = 1.0 / dx_du
    de = -(u / g) * du
    vel = u_inf + u

    kap = g * gas.mu / gas.Pr
    sigma = np.zeros_like(U)
    sigma[:, 1] = (4.0 / 3.0) * gas.mu * du
    sigma[:, 2] = (4.0 / 3.0) * gas.mu * vel * du + kap * de

    F = euler_flux(U.T, gas)[0].T - u_inf * U - sigma
    spread = np.max(np.abs(F - F[0]), axis=0)
    assert np.max(spread) <= 1e-11 * max(1.0, np.max(np.abs(F)))

    # the same stresses come out of the entropy-variable evaluation path
    v = entropy_vars(U, gas)
    theta = np.zeros_like(v)
    theta[:, 1] = (du * e - vel * de) / e ** 2
    theta[:, 2] = de / e ** 2
    sig2 = viscous_sigma(v.T, (theta.T,), gas)[0].T
    assert np.max(np.abs(sig2 - sigma)) <= 1e-12 * max(1.0, np.max(np.abs(sigma)))


def test_viscous_shock_2d_extrusion_matches_1d():
    c1 = viscous_shock()
    c2 = viscous_shock(dim=2)
    x = np.linspace(-0.5, 0.7, 11)
    xy = np.stack([x, 0.3 * np.ones_like(x)], axis=-1)[:, None, :]
    u2 = c2.exact(xy, 0.37)
    u1 = c1.exact(x[:, None, None], 0.37)
    assert np.array_equal(u2[..., [0, 1, 3]], u1)
    assert np.all(u2[..., 2] == 0.0)
    assert c2.cfl == 0.75 and c2.aspect == (2, 1)


# ---------------------------------------------------------------------------
# sine-shock interaction


def test_sine_shock_initial_and_boundary_data():
    case = sine_shock()
    mesh = case.build_mesh(64, 3)
    u0 = case.ic(mesh.xy)
    prim = conserved_to_primitive(u0, case.gas)
    left = mesh.xy[..., 0] < -4.0
    assert np.allclose(prim[left][:, 0], 3.857143)
    assert np.allclose(prim[left][:, 1], 2.629369)
    x = mesh.xy[~left][:, 0]
    assert np.allclose(prim[~left][:, 0], 1.0 + 0.2 * np.sin(5.0 * x))
    assert np.allclose(prim[~left][:, 2], 1.0)

    bdry = mesh.slot_exterior == np.arange(len(mesh.slot_exterior))
    tags = mesh.slot_tag[bdry]
    xb = mesh.slot_xy[bdry][:, 0]
    assert np.all(tags[xb < 0] == 1) and np.all(tags[xb > 0] == 2)
    assert case.bcs.table[1].kind == "dirichlet"
    assert case.bcs.table[2].kind == "outflow"
    g = case.bcs.table[1].fun(np.zeros((3, 1)), 1.2)
    assert np.allclose(g, u0[0, 0])


# ---------------------------------------------------------------------------
# isentropic vortex


def test_vortex_center_density_is_the_known_minimum():
    case = isentropic_vortex()
    center = np.array([[[9.0, 5.0]]])
    rho_c = case.exact(center, 0.0)[0, 0, 0]
    assert abs(rho_c - 2.1448595753862873e-4) <= 1e-16
    # the core is the global minimum
    mesh = case.build_mesh(16, 4, "quad")
    assert case.exact(mesh.xy, 0.0)[..., 0].min() >= rho_c - 1e-16


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 5.0), dx=st.floats(-2.0, 2.0), dy=st.floats(-2.0, 2.0))
def test_vortex_translates_at_unit_speed(t, dx, dy):
    case = isentropic_vortex()
    pt = np.array([[[9.0 + dx, 5.0 + dy]]])
    moved = pt.copy()
    moved[..., 0] += t
    assert np.allclose(case.exact(moved, t), case.exact(pt, 0.0),
                       rtol=1e-12, atol=1e-14)


def test_vortex_fields_balance_momentum():
    """Steady in the co-moving frame: rho (w . grad) w + grad p = 0."""
    case = isentropic_vortex()
    rng = np.random.default_rng(7)
    r = rng.uniform(0.2, 1.8, 40)
    th = rng.uniform(0.0, 2.0 * np.pi, 40)
    pts = np.stack([9.0 + r * np.cos(th), 5.0 + r * np.sin(th)], axis=-1)

    def fields(xy):
        prim = conserved_to_primitive(case.exact(xy[:, None, :], 0.0),
                                      case.gas)[:, 0, :]
        w = prim[:, 1:3].copy()
        w[:, 0] -= 1.0
        return prim[:, 0], w, prim[:, 3]

    h = 1e-5
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    rho, w, _ = fields(pts)
    _, wxp, pxp = fields(pts + ex)
    _, wxm, pxm = fields(pts - ex)
    _, wyp, pyp = fields(pts + ey)
    _, wym, pym = fields(pts - ey)
    dw_dx = (wxp - wxm) / (2 * h)
    dw_dy = (wyp - wym) / (2 * h)
    grad_p = np.stack([(pxp - pxm) / (2 * h), (pyp - pym) / (2 * h)], axis=-1)
    conv = w[:, :1] * dw_dx + w[:, 1:] * dw_dy
    resid = rho[:, None] * conv + grad_p
    assert np.max(np.abs(resid)) <= 1e-6


# ---------------------------------------------------------------------------
# blast wave


def test_sedov_radius_binds_to_four_cell_widths():
    case = sedov()
    with pytest.raises(RuntimeError, match="bind"):
        case.ic(np.zeros((1, 1, 2)))
    for elem in ("quad", "tri"):
        mesh = case.build_mesh(25, 3, elem)
        bound = case.bind(mesh)
        assert bound.binder is None and bound.bind(mesh) is bound
        u0 = bound.ic(mesh.xy)
        p = pressure(u0, case.gas)
        r0 = 4.0 * (3.0 / 25.0)
        p_int = 0.4 * 1.0 / (np.pi * r0 ** 2)
        r = np.hypot(mesh.xy[..., 0], mesh.xy[..., 1])
        assert np.allclose(p[r < r0 - 1e-12], p_int)
        assert np.allclose(p[r > r0 + 1e-12], 1e-5)
        assert np.all(u0[..., 0] == 1.0)


def test_sedov_explicit_radius_skips_binding():
    case = sedov(E0=2.0, r0=0.3)
    assert case.binder is None
    p = pressure(case.ic(np.array([[[0.0, 0.0]]])), case.gas)[0, 0]
    assert abs(p - 0.4 * 2.0 / (np.pi * 0.09)) <= 1e-15


# ---------------------------------------------------------------------------
# double Mach reflection


def test_dmr_shock_line_hits_wall_start():
    case = dmr()
    u = case.ic(np.array([[[1.0 / 6.0, 0.0]], [[0.0, 0.0]], [[3.0, 0.5]]]))
    prim = conserved_to_primitive(u, case.gas)
    assert prim[0, 0, 0] == 1.4       # on the line counts as pre-shock
    assert prim[1, 0, 0] == 8.0       # wall-left corner is post-shock
    assert prim[2, 0, 0] == 1.4


def test_dmr_top_boundary_tracks_the_shock():
    case = dmr()
    g = case.bcs.table[2].fun
    s0 = (1.0 + np.sqrt(3.0) / 6.0) / np.sqrt(3.0)
    pts = np.array([[s0 - 1e-3, 1.0], [s0 + 1e-3, 1.0]])
    u = g(pts, 0.0)
    assert u[0, 0] == 8.0 and u[1, 0] == 1.4
    # at t > 0 the trace has moved right at speed 10 / cos(pi/6)
    t = 0.01
    shift = 10.0 / np.cos(np.pi / 6.0) * t
    pts_t = np.array([[s0 + shift - 1e-3, 1.0], [s0 + shift + 1e-3, 1.0]])
    u = g(pts_t, t)
    assert u[0, 0] == 8.0 and u[1, 0] == 1.4
    # left and right boundaries keep their far-field states
    side = g(np.array([[0.0, 0.4], [3.5, 0.4]]), 0.1)
    assert side[0, 0] == 8.0 and side[1, 0] == 1.4


def test_dmr_wall_tags_cover_only_the_ramp_equivalent_segment():
    case = dmr()
    mesh = case.build_mesh(4, 2, "quad")
    bdry = mesh.slot_exterior == np.arange(len(mesh.slot_exterior))
    xy = mesh.slot_xy[bdry]
    tags = mesh.slot_tag[bdry]
    on_wall = (xy[:, 1] < 1e-12) & (xy[:, 0] >= 1.0 / 6.0)
    assert np.all(tags[on_wall] == 1)
    assert np.all(tags[~on_wall] == 2)
    assert case.bcs.table[1].kind == "wall"
    assert case.bcs.table[1].mode == "riemann"


# ---------------------------------------------------------------------------
# Daru-Tenaud shock tube


def test_daru_high_pressure_half_and_walls():
    case = daru_tenaud()
    assert case.gas.Pr == 0.73
    assert case.gas.mu == 1e-3
    u = case.ic(np.array([[[0.75, 0.25]], [[0.25, 0.25]]]))
    prim = conserved_to_primitive(u, case.gas)
    assert np.allclose(prim[0, 0], [120.0, 0.0, 0.0, 120.0 / 1.4])
    assert np.allclose(prim[1, 0], [1.2, 0.0, 0.0, 1.2 / 1.4])

    mesh = case.build_mesh(6, 2, "quad")
    bdry = mesh.slot_exterior == np.arange(len(mesh.slot_exterior))
    xy = mesh.slot_xy[bdry]
    tags = mesh.slot_tag[bdry]
    top = xy[:, 1] > 0.5 - 1e-12
    assert np.all(tags[top] == 1)
    assert np.all(tags[~top] == 2)
    assert case.bcs.table[1].kind == "wall"
    assert case.bcs.table[2].kind == "noslip"


# ---------------------------------------------------------------------------
# error norms


def test_error_norm_requires_exact_solution():
    case = sine_shock()
    mesh = case.build_mesh(8, 2)
    with pytest.raises(ValueError, match="exact"):
        error_norms(case.ic(mesh.xy), mesh, case)


def test_error_norm_is_scale_invariant_and_additive_over_variables():
    case = leblanc()
    mesh = case.build_mesh(16, 2)
    rng = np.random.default_rng(3)
    u = case.exact(mesh.xy, case.t_final)
    u_pert = u * (1.0 + 0.01 * rng.standard_normal(u.shape))
    for p in (1, 2):
        e1 = error_norms(u_pert, mesh, case, p=p)
        per = error_norms(u_pert, mesh, case, p=p, per_variable=True)
        assert per.shape == (3,)
        assert abs(e1 - per.sum()) <= 1e-15
        # relative norms are invariant under a joint rescaling
        case2 = dataclasses_replace_exact(case, scale=7.0)
        e2 = error_norms(7.0 * u_pert, mesh, case2, p=p)
        assert abs(e1 - e2) <= 1e-13 * e1


def dataclasses_replace_exact(case, scale):
    import dataclasses

    ex = case.exact
    return dataclasses.replace(case, exact=lambda xy, t: scale * ex(xy, t))


def test_error_norm_known_constant_perturbation():
    case = leblanc()
    mesh = case.build_mesh(10, 3)
    u = case.exact(mesh.xy, case.t_final)
    u2 = u.copy()
    u2[..., 0] += 0.01
    per = error_norms(u2, mesh, case, p=1, per_variable=True)
    den = np.sum(mesh.mass * np.abs(u[..., 0]))
    assert abs(per[0] - 0.01 * 1.0 / den) <= 1e-13   # domain has measure 1
    assert per[1] == 0.0 and per[2] == 0.0


def test_error_norm_skips_variables_with_vanishing_exact_norm():
    case = viscous_shock(dim=2)
    mesh = case.build_mesh(3, 2, "quad")
    u = case.exact(mesh.xy, case.t_final)
    u_noisy = u.copy()
    u_noisy[..., 2] += 1e-3
    per = error_norms(u_noisy, mesh, case, p=2, per_variable=True)
    assert np.isfinite(per).all()
    assert per[2] == 0.0
    assert error_norms(u_noisy, mesh, case, p=2) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Schlieren transform


@pytest.mark.parametrize("elem", ["quad", "tri"])
def test_schlieren_constant_and_linear_fields_map_to_one(elem):
    case = isentropic_vortex()
    mesh = case.build_mesh(3, 3, elem)
    assert np.all(schlieren(np.ones(mesh.xy.shape[:2]), mesh) == 1.0)
    # a linear field has constant gradient magnitude, also degenerate
    rho = 2.0 + 0.3 * mesh.xy[..., 0] - 0.1 * mesh.xy[..., 1]
    assert np.allclose(schlieren(rho, mesh), 1.0)


def test_schlieren_orders_by_gradient_magnitude():
    case = isentropic_vortex()
    mesh = case.build_mesh(4, 3, "quad")
    x = mesh.xy[..., 0]
    rho = 1.0 + (x - 10.0) ** 2
    s = schlieren(rho, mesh)
    g = np.abs(2.0 * (x - 10.0))
    assert s.min() > 0.0 and s.max() <= 1.0
    assert s.flat[np.argmax(g)] == pytest.approx(np.exp(-10.0))
    assert s.flat[np.argmin(g)] == pytest.approx(1.0)
    # monotone decreasing in g
    order = np.argsort(g.ravel())
    s_sorted = s.ravel()[order]
    assert np.all(np.diff(s_sorted) <= 1e-12)


def test_schlieren_line_mesh_smoke():
    case = leblanc()
    mesh = case.build_mesh(12, 2)
    rho = case.ic(mesh.xy)[..., 0]
    s = schlieren(rho, mesh)
    assert s.shape == rho.shape
    assert np.all((0.0 < s) & (s <= 1.0))
