"""Residual evaluations: free-stream, conservation, entropy balance,
consistency orders, viscous gradients, bar-state decomposition."""

import numpy as np
import pytest
from oracles import (
    bar_state_residual,
    ec_fluxes_prims_ref,
    ec_prims_ref,
    euler_flux,
    lam_hat_ref,
    normal_flux_ref,
)
from schemes import (
    Scheme,
    components,
    exterior_sigma_ref,
    face_states_ref,
    fuzz_schemes,
    fuzz_state,
    periodic_mesh,
    walled_scheme,
)

from posdg import cli
from posdg.bc import BCSet, dirichlet, noslip, outflow, wall
from posdg.cases import CASES, get_case
from posdg.mesh import interval_mesh, rect_mesh
from posdg.physics import (
    GasParams,
    davis_wavespeed,
    entropy_to_conserved,
    entropy_vars,
    internal_energy,
    is_admissible,
    normal_flux,
    primitive_to_conserved,
)
from posdg import rhs_low
from posdg.rhs_low import LowOrderRHS, interface_flux_low
from posdg.timestepping import Stepper
from posdg.workspace import Workspace

GAS = GasParams(gamma=1.4)
GAS_V = GasParams(gamma=1.4, mu=0.01, Pr=0.75)


def smooth_state(mesh, gas=GAS):
    x = mesh.xy[..., 0]
    y = mesh.xy[..., 1] if mesh.dim == 2 else 0.0 * x
    prim = np.empty(mesh.xy.shape[:-1] + (mesh.dim + 2,))
    prim[..., 0] = 2.0 + 0.5 * np.sin(x) * np.cos(y)
    prim[..., 1] = 0.7 + 0.2 * np.cos(x)
    if mesh.dim == 2:
        prim[..., 2] = -0.3 + 0.1 * np.sin(y)
    prim[..., -1] = 1.5 + 0.4 * np.sin(x + y)
    return primitive_to_conserved(prim, gas)


ELEMS = [("line", 2), ("line", 4), ("quad", 2), ("quad", 3), ("tri", 2), ("tri", 3)]


# ---------------------------------------------------------------------------
# free stream and conservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elem,N", ELEMS)
@pytest.mark.parametrize("viscous", [False, True])
def test_free_stream(elem, N, viscous):
    gas = GAS_V if viscous else GAS
    mesh = periodic_mesh(elem, N, K=3)
    bcs = BCSet({})
    prim = np.array([1.3] + [0.4, -0.2][: mesh.dim] + [2.0])
    u = np.broadcast_to(primitive_to_conserved(prim, gas),
                        mesh.xy.shape[:-1] + (mesh.dim + 2,)).copy()
    sch = Scheme(mesh, gas, bcs)
    sig = None
    if viscous:
        _, _, sig = sch.gradient(u, 0.0)
        assert max(np.abs(s).max() for s in sig) < 1e-12
    for R in (sch.high_residual(u, 0.0, sig), sch.low_residual(u, 0.0, sig)[0]):
        assert np.abs(R).max() < 1e-11


@pytest.mark.parametrize("elem,N", ELEMS)
def test_free_stream_with_walls(elem, N):
    # constant state aligned with the wall stays constant
    if elem == "line":
        mesh = interval_mesh(0.0, 1.0, 6, N)
        prim = np.array([1.3, 0.0, 2.0])
    else:
        mesh = rect_mesh(elem, (0.0, 1.0, 0.0, 1.0), 3, 3, N,
                         periodic=(True, False))
        prim = np.array([1.3, 0.4, 0.0, 2.0])
    bcs = BCSet({1: wall()})
    u = np.broadcast_to(primitive_to_conserved(prim, GAS),
                        mesh.xy.shape[:-1] + (mesh.dim + 2,)).copy()
    sch = Scheme(mesh, GAS, bcs)
    for R in (sch.high_residual(u, 0.0), sch.low_residual(u, 0.0)[0]):
        assert np.abs(R).max() < 1e-11


@pytest.mark.parametrize("elem,N", ELEMS)
@pytest.mark.parametrize("viscous", [False, True])
def test_conservation_periodic(elem, N, viscous):
    gas = GAS_V if viscous else GAS
    mesh = periodic_mesh(elem, N, K=3)
    bcs = BCSet({})
    u = smooth_state(mesh, gas)
    sch = Scheme(mesh, gas, bcs)
    sig = sch.gradient(u, 0.0)[2] if viscous else None
    scale = np.abs(u).max() * mesh.total_mass
    for R in (sch.high_residual(u, 0.0, sig), sch.low_residual(u, 0.0, sig)[0]):
        drift = np.abs(R.reshape(-1, mesh.dim + 2).sum(axis=0)).max()
        assert drift < 1e-12 * scale


# ---------------------------------------------------------------------------
# entropy balance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elem,N", ELEMS)
def test_entropy_conservation_ec_flux(elem, N):
    # a continuous state has no interface jumps, so the interface flux
    # dissipates nothing and the semidiscrete entropy rate vanishes
    mesh = periodic_mesh(elem, N, K=3)
    bcs = BCSet({})
    u = smooth_state(mesh)
    v = entropy_vars(u, GAS)
    sch = Scheme(mesh, GAS, bcs)
    rate = float(np.sum(v * sch.high_residual(u, 0.0)))
    scale = float(np.sum(np.abs(v * u) * mesh.mass[..., None]))
    assert abs(rate) < 1e-11 * scale


@pytest.mark.parametrize("elem,N", ELEMS)
@pytest.mark.parametrize("viscous", [False, True])
def test_entropy_dissipation(elem, N, viscous):
    gas = GAS_V if viscous else GAS
    mesh = periodic_mesh(elem, N, K=3)
    bcs = BCSet({})
    u = smooth_state(mesh, gas)
    v = entropy_vars(u, gas)
    sch = Scheme(mesh, gas, bcs)
    sig = sch.gradient(u, 0.0)[2] if viscous else None
    scale = float(np.sum(np.abs(v * u) * mesh.mass[..., None]))
    for R in (sch.high_residual(u, 0.0, sig), sch.low_residual(u, 0.0, sig)[0]):
        rate = float(np.sum(v * R))
        assert rate < 1e-11 * scale


def test_ldg_dissipation_quadratic_form():
    mesh = periodic_mesh("quad", 3, K=3)
    bcs = BCSet({})
    u = smooth_state(mesh, GAS_V)
    _, thetas, sigmas = Scheme(mesh, GAS_V, bcs).gradient(u, 0.0)
    diss = sum(float(np.sum(mesh.mass[..., None] * thetas[k] * sigmas[k]))
               for k in range(mesh.dim))
    assert diss > 0


# ---------------------------------------------------------------------------
# consistency orders
# ---------------------------------------------------------------------------

def _divergence_error(mesh, order, gas=GAS, element_mean=False):
    # advecting density wave: rho smooth, velocity and pressure constant
    x = mesh.xy[..., 0]
    rho = 2.0 + 0.5 * np.sin(x)
    drho = 0.5 * np.cos(x)
    uvel, p = 0.7, 1.2
    prim = np.empty(mesh.xy.shape[:-1] + (mesh.dim + 2,))
    prim[..., 0] = rho
    prim[..., 1] = uvel
    if mesh.dim == 2:
        prim[..., 2] = 0.0
    prim[..., -1] = p
    u = primitive_to_conserved(prim, gas)
    exact = np.zeros_like(u)
    exact[..., 0] = -uvel * drho
    exact[..., 1] = -uvel ** 2 * drho
    exact[..., -1] = -0.5 * uvel ** 3 * drho
    sch = Scheme(mesh, gas, BCSet({}))
    R = (sch.high_residual(u, 0.0) if order == "high"
         else sch.low_residual(u, 0.0)[0])
    if element_mean:
        diff = (R - exact * mesh.mass[..., None]).sum(axis=1)
        vol = mesh.mass.sum(axis=1)
        return np.sqrt(np.sum(diff ** 2 / vol[:, None]))
    R = R / mesh.mass[..., None]
    return np.sqrt(np.sum(mesh.mass[..., None] * (R - exact) ** 2))


@pytest.mark.parametrize("elem,N", [("line", 2), ("line", 3), ("quad", 2), ("tri", 2)])
def test_high_order_consistency_rate(elem, N):
    errs = []
    for K in (3, 6):
        mesh = periodic_mesh(elem, N, K=K)
        errs.append(_divergence_error(mesh, "high"))
    rate = np.log2(errs[0] / errs[1])
    assert rate > N - 0.4, f"observed rate {rate}"


@pytest.mark.parametrize("elem", ["line", "quad", "tri"])
def test_low_order_consistency_rate(elem):
    # the sparse operator is not nodewise consistent on non-uniform nodes;
    # consistency holds for element means, where internal pairs cancel and
    # only the surface fluxes remain
    errs = []
    for K in (4, 8):
        mesh = periodic_mesh(elem, 2, K=K)
        errs.append(_divergence_error(mesh, "low", element_mean=True))
    rate = np.log2(errs[0] / errs[1])
    assert rate > 1.5, f"observed rate {rate}"


@pytest.mark.parametrize("elem,N", [("line", 3), ("quad", 2), ("tri", 3)])
def test_gradient_exact_for_polynomial_entropy_vars(elem, N):
    # v linear in space and continuous: theta must be its exact gradient
    if elem == "line":
        mesh = interval_mesh(0.0, 1.0, 5, N)
    else:
        mesh = rect_mesh(elem, (0.0, 1.0, 0.0, 1.0), 3, 2, N)
    base = entropy_vars(primitive_to_conserved(
        np.array([1.2] + [0.3, -0.1][: mesh.dim] + [1.5]), GAS), GAS)
    ax = np.linspace(0.04, -0.03, mesh.dim + 2)
    ay = np.linspace(-0.02, 0.05, mesh.dim + 2)

    def vfield(x, y):
        return base + ax * x[..., None] + (ay * y[..., None] if mesh.dim == 2 else 0.0)

    x = mesh.xy[..., 0]
    y = mesh.xy[..., 1] if mesh.dim == 2 else np.zeros_like(x)
    u = entropy_to_conserved(vfield(x, y), GAS)

    def g(xb, t):
        yb = xb[:, 1] if mesh.dim == 2 else np.zeros(len(xb))
        return entropy_to_conserved(vfield(xb[:, 0], yb), GAS)

    _, thetas, _ = Scheme(mesh, GAS, BCSet({1: dirichlet(g)})).gradient(u, 0.0)
    assert np.abs(thetas[0] - ax).max() < 1e-10
    if mesh.dim == 2:
        assert np.abs(thetas[1] - ay).max() < 1e-10


# ---------------------------------------------------------------------------
# structure shared with the low-order scheme
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elem,N", ELEMS)
def test_matched_interface_equals_low_order_on_piecewise_constants(elem, N):
    # for elementwise-constant data the high-order scheme with the low-order
    # interface flux reduces to the low-order one: the scatter of the pair
    # differences dF = F^H - F^L, which is r^H - r^L, vanishes up to
    # summation order
    mesh = periodic_mesh(elem, N, K=3)
    bcs = BCSet({})
    rng = np.random.default_rng(3)
    K = mesh.n_elements
    prim = np.empty((K, mesh.dim + 2))
    prim[:, 0] = rng.uniform(0.5, 2.0, K)
    prim[:, 1:-1] = rng.uniform(-1, 1, (K, mesh.dim))
    prim[:, -1] = rng.uniform(0.5, 2.0, K)
    u = np.repeat(primitive_to_conserved(prim, GAS)[:, None, :],
                  mesh.ops.n_nodes, axis=1)
    sch = Scheme(mesh, GAS, bcs)
    RL = sch.low_residual(u, 0.0)[0]
    dF = sch.pair_differences(u)
    r = mesh.scatter @ dF
    assert np.abs(r).max() < 1e-12 * max(1.0, np.abs(RL).max())


@pytest.mark.parametrize("elem,N", ELEMS)
@pytest.mark.parametrize("viscous", [False, True])
def test_bar_state_decomposition(elem, N, viscous):
    gas = GAS_V if viscous else GAS
    mesh = periodic_mesh(elem, N, K=3)
    bcs = BCSet({})
    u = smooth_state(mesh, gas)
    sch = Scheme(mesh, gas, bcs)
    sig = sch.gradient(u, 0.0)[2] if viscous else None
    R, lam = sch.low_residual(u, 0.0, sig)
    Rb, lam_b, rho_min, e_min = bar_state_residual(sch, u, 0.0, sig)
    scale = max(np.abs(R).max(), 1.0)
    assert np.abs(R - Rb).max() < 1e-11 * scale
    assert np.abs(lam - lam_b).max() < 1e-11 * lam.max()
    assert rho_min > 0 and e_min > 0
    # forward Euler at the positivity step size is a convex combination
    dt = sch.max_dt(u, 0.0, sig)
    coef = 2.0 * dt * lam / mesh.mass
    assert coef.max() <= 1.0 + 1e-12
    unew = u + dt * R / mesh.mass[..., None]
    assert np.all(is_admissible(unew))


def test_bar_state_decomposition_with_boundaries():
    mesh = interval_mesh(0.0, 1.0, 8, 2)
    uL = primitive_to_conserved(np.array([1.0, 0.0, 1.0]), GAS)
    uR = primitive_to_conserved(np.array([0.125, 0.0, 0.1]), GAS)
    x = mesh.xy[..., 0]
    u = np.where(x[..., None] < 0.5, uL, uR)

    def g(xb, t):
        return np.where(xb[:, :1] < 0.5, uL, uR)

    sch = Scheme(mesh, GAS, BCSet({1: dirichlet(g)}))
    R, lam = sch.low_residual(u, 0.0)
    Rb, lam_b, rho_min, e_min = bar_state_residual(sch, u, 0.0)
    assert np.abs(R - Rb).max() < 1e-11 * np.abs(R).max()
    assert rho_min > 0 and e_min > 0


# ---------------------------------------------------------------------------
# per-end wavespeeds against the pairwise form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elem,N", [("line", 3), ("quad", 2), ("quad", 3),
                                    ("tri", 2), ("tri", 3)])
@pytest.mark.parametrize("viscous", [False, True])
def test_wavespeeds_match_pairwise_form(elem, N, viscous):
    # max(w_i, w_j) over the shared per-end table equals max(beta_i, beta_j,
    # Davis) evaluated at both ends of every pair and slot, bit for bit;
    # strong viscosity, so beta exceeds Davis at some ends
    gas = GasParams(gamma=1.4, mu=5.0) if viscous else GAS
    sch, u = walled_scheme(elem, N, gas)
    mesh = sch.mesh
    tags = {1, 3} if elem == "line" else {1, 2, 3}
    assert set(mesh.slot_tag[mesh.slot_tag > 0].tolist()) == tags
    sig = sch.gradient(u, 0.0)[2] if viscous else None
    faces = sch.faces(u, 0.0, sig)
    w = sch.wavespeeds(u, 0.0, sig)
    pairs = sch.low_pairs(u, 0.0, sig)

    # the face arrays are component first and slot-major, (nvar, Nfp * K)
    uf, uP, sigf, sigP, nrm = faces
    lam_hat = lam_hat_ref(uf, uP, sigf, sigP, nrm, gas)
    n1 = np.abs(nrm[0])
    for d in range(1, mesh.dim):
        n1 = n1 + np.abs(nrm[d])
    lam_s = 0.5 * mesh.slot_wsJ * n1 * lam_hat
    rates = sch.low.rates(w, Workspace())
    assert np.array_equal(rates[1], lam_s)
    lam_nodes = (mesh.ops.E.T @ lam_s.reshape(mesh.n_face_nodes, -1)).T
    beta_binds = np.any(lam_hat > np.maximum(
        davis_wavespeed(uf, nrm, gas, Workspace()),
        davis_wavespeed(uP, nrm, gas, Workspace())))
    for elems, gc in zip(mesh.class_elems, mesh.classes):
        lam_p = pairs[1][:, elems].T
        low = slice(gc.n_low)
        pi, pj = gc.pair_i[low], gc.pair_j[low]
        nn = np.linalg.norm(gc.pair_n[low], axis=1)
        unit = (gc.pair_n[low] / nn[:, None]).T
        # the kernels take (nvar, K_c, npairs) states
        ui, uj = (np.moveaxis(u[elems][:, idx], -1, 0) for idx in (pi, pj))
        si = sj = None
        if viscous:
            si, sj = (tuple(np.moveaxis(s[elems][:, idx], -1, 0) for s in sig)
                      for idx in (pi, pj))
        lam_hat = lam_hat_ref(ui, uj, si, sj, unit, gas)
        assert np.array_equal(lam_p, lam_hat * nn)
        # the nodal sum in the solver's orientation, |S| @ lam_p, with |S|
        # column-major as the solver stores it, so that both take the same
        # BLAS path and summation order, whatever the quadrature rule
        absS = np.asfortranarray(np.abs(gc.scatter[:, low]))
        lam_nodes[elems] += (absS @ (lam_hat * nn).T).T
        beta_binds |= np.any(lam_hat > np.maximum(
            davis_wavespeed(ui, unit, gas, Workspace()),
            davis_wavespeed(uj, unit, gas, Workspace())))
    assert beta_binds == viscous
    assert np.array_equal(rates[2].T, lam_nodes)
    # the Stepper's dt bound, here mode none's, is the one of these rates
    st = Stepper(mesh, gas, sch.low.bcs, mode="none")
    assert (st.prepare(components(u), 0.0)["bound"]
            == float((mesh.mass / (2.0 * lam_nodes)).min()))


def test_inviscid_wavespeeds_equal_davis_of_gathered_ends():
    # the sound speed is formed per node and per ghost state and then
    # gathered; the result equals the per-end form bit for bit, here with
    # wall-Riemann and moving Dirichlet ghosts (the tri and quad walled
    # meshes are covered by test_wavespeeds_match_pairwise_form)
    case = get_case("dmr")
    mesh = case.build_mesh(2, 3)
    gas, bcs = case.gas, case.bcs
    u = components(case.ic(mesh.xy))
    t = 0.02            # the top boundary's shock trace has moved
    low = LowOrderRHS(mesh, gas, bcs)
    uP = low.face_states(u, t, Workspace())[1]
    assert low._bdry_slots.size
    w, F = low.wavespeeds(u, uP, ws=Workspace())
    # the end states gathered in full: every node end, then every ghost
    ue = np.concatenate([u.reshape(len(u), -1)[:, low._end_src],
                         uP[:, low._bdry_slots]], axis=1)
    assert np.array_equal(w, davis_wavespeed(ue, low._end_dir, gas,
                                             Workspace()))
    # and so does the normal flux table, whose pressure is gathered too
    assert np.array_equal(F, normal_flux(ue, low._end_dir, gas,
                                         ws=Workspace()))


def _check_boundary_pass(low, bcs, rng, t):
    """The face states and the boundary slots' exterior viscous fluxes
    of ``low`` on a rough state equal the per-tag boolean-mask oracles bit
    for bit."""
    mesh, gas = low.mesh, low.gas
    u = components(fuzz_state(rng, mesh, gas)[0])
    for a, ref in zip(low.face_states(u, t, Workspace()),
                      face_states_ref(mesh, bcs, u, t, gas)):
        assert np.array_equal(a, ref)
    sig = rng.normal(size=(mesh.dim,) + u.shape)
    sigb = tuple(s.reshape(len(s), -1)[:, low._bdry_src] for s in sig)
    tags = mesh.slot_tag[mesh.slot_tag > 0]
    for a, ref in zip(bcs.exterior_sigma(sigb, low._adiabatic),
                      exterior_sigma_ref(bcs, sigb, tags)):
        assert np.array_equal(a, ref)


CASE_BCS = [(name, flavor) for name in sorted(CASES)
            for flavor in ((None, "false") if name in ("dmr", "daru")
                           else (None,))]


@pytest.mark.parametrize("name,wall_riemann", CASE_BCS)
def test_boundary_pass_equals_per_tag_oracle_on_catalog_cases(name,
                                                              wall_riemann):
    # the slot groups formed at construction give every catalog case's
    # boundary states bit for bit: wall-Riemann, and mirror walls through
    # the wall_riemann key (dmr, daru), no-slip (daru), moving Dirichlet
    # (dmr), Dirichlet and outflow (sine-shock), Dirichlet (LeBlanc, the
    # viscous shocks) and none (the periodic vortex and Sedov)
    raw = dict(case=name, N=2, K=4)
    if wall_riemann is not None:
        raw["wall_riemann"] = wall_riemann
    case, mesh, st, _, _, _ = cli.setup(cli.make_config(raw))
    bcs = case.bcs
    present = set(mesh.slot_tag[mesh.slot_tag > 0].tolist())
    assert [g.bc for g in st.low._bc_groups] == [
        bc for tag, bc in bcs.table.items()
        if tag in present and bc.kind != "outflow"]
    if wall_riemann is not None:
        assert {bc.mode for bc in bcs.table.values()
                if bc.kind == "wall"} == {"mirror"}
    _check_boundary_pass(st.low, bcs, np.random.default_rng(5), t=0.02)


@pytest.mark.parametrize("elem", ["line", "quad", "tri"])
def test_boundary_pass_drops_outflow_and_absent_tags(elem):
    # outflow slots keep their traces and absent tags form no group; the
    # states of the others, a moving Dirichlet one included, and the
    # adiabatic negation of the walls match the oracles
    if elem == "line":
        mesh = interval_mesh(0.0, 2.0, 6, 3,
                             classify=lambda x: np.where(x[:, 0] < 1.0, 3, 4))
    else:
        def classify(xy):
            x, y = xy[:, 0], xy[:, 1]
            return np.where(x < 1e-12, 3, np.where(
                x > 2.0 - 1e-12, 4, np.where(y < -1.0 + 1e-12, 2, 1)))

        mesh = rect_mesh(elem, (0.0, 2.0, -1.0, 1.0), 3, 2, 2,
                         classify=classify)
    u_in = primitive_to_conserved(
        np.array([1.2] + [0.3, -0.1][:mesh.dim] + [0.9]), GAS)

    def g(xb, t):
        return u_in * (1.0 + 0.1 * np.sin(xb[:, :1] - t))

    bcs = BCSet({9: wall("mirror"), 1: wall("riemann"), 2: noslip(),
                 3: dirichlet(g), 4: outflow(), 10: dirichlet(g)})
    low = LowOrderRHS(mesh, GAS, bcs)
    present = sorted(set(mesh.slot_tag[mesh.slot_tag > 0].tolist()))
    assert present == ([3, 4] if elem == "line" else [1, 2, 3, 4])
    groups = low._bc_groups
    assert [g.bc for g in groups] == [bcs.table[tag] for tag in (1, 2, 3)
                                      if tag in present]
    for grp, tag in zip(groups, [tag for tag in (1, 2, 3) if tag in present]):
        assert np.array_equal(grp.slots, np.nonzero(mesh.slot_tag == tag)[0])
    rng = np.random.default_rng(11)
    _check_boundary_pass(low, bcs, rng, t=0.3)
    uf, uP = low.face_states(components(fuzz_state(rng, mesh, GAS)[0]), 0.3,
                             Workspace())
    out = mesh.slot_tag == 4
    assert out.any() and np.array_equal(uP[:, out], uf[:, out])


# ---------------------------------------------------------------------------
# the mesh-wide (variable, pair, element) layout of the pair arrays
# ---------------------------------------------------------------------------

def _class_pair_arrays_ref(gc, elems, u, sig, gas):
    """F^H, F^L and lambda_ij of one geometry class from the oracles, with
    the class's own weights. F^L is formed per end: the normal flux of each
    end along the pair's direction e, viscous fluxes included, with n_ij =
    s |n_ij| e. The arithmetic runs on the class's (nvar, npairs, K_c)
    arrays; the results are returned in the per-class layout (K_c, npairs,
    nvar)."""
    pi, pj, low = gc.pair_i, gc.pair_j, slice(gc.n_low)
    uc = components(u)[:, :, elems]
    sc = None if sig is None else tuple(s[:, :, elems]
                                        for s in components(sig))
    prims = ec_prims_ref(uc, gas)
    # the two-point flux along n_k = -(Q_k - Q_k^T)_ij
    n = -gc.pair_s[..., None]
    FH = ec_fluxes_prims_ref(prims[:, pi], prims[:, pj], n, gas)
    for d in range(len(n) if sc is not None else 0):
        FH -= 0.5 * (sc[d][:, pi] + sc[d][:, pj]) * n[d]

    li, lj = pi[low], pj[low]
    nij = gc.pair_n[low].T[..., None]
    nn = np.linalg.norm(nij, axis=0)
    si = sj = None
    if sc is not None:
        si, sj = (tuple(s[:, idx] for s in sc) for idx in (li, lj))
    unit = nij / nn
    lam = lam_hat_ref(uc[:, li], uc[:, lj], si, sj, unit, gas) * nn
    # both ends of a pair take its direction up to sign, the one whose
    # first nonzero component is positive: unit = s e
    s = np.sign(unit[-1])
    for d in reversed(range(len(unit) - 1)):
        s = np.where(unit[d] != 0.0, np.sign(unit[d]), s)
    e = s * unit

    def end_flux(idx, sig_end):
        f = normal_flux_ref(uc[:, idx], e, gas)
        if sig_end is not None:
            f = f - sum(e[d] * sig_end[d] for d in range(len(e)))
        return f

    FL = (-(s * nn) * (end_flux(li, si) + end_flux(lj, sj))
          + (uc[:, lj] - uc[:, li]) * lam)
    return FH.T, FL.T, lam.T


@pytest.mark.parametrize("elem", ["quad", "tri"])
@pytest.mark.parametrize("viscous", [False, True])
def test_pair_arrays_equal_per_class_oracles(elem, viscous):
    # the (nvar, npairs, K) arrays, read back per class, hold the per-class
    # arithmetic bit for bit: same flux, weights and wavespeeds, new layout
    gas = GAS_V if viscous else GAS
    mesh = periodic_mesh(elem, 3, K=3)
    u = smooth_state(mesh, gas)
    sch = Scheme(mesh, gas, BCSet({}))
    sig = sch.gradient(u, 0.0)[2] if viscous else None
    FH = sch.high_pairs(u, sig)
    FL, lam = sch.low_pairs(u, 0.0, sig)
    nvar = u.shape[-1]
    assert FH.shape == (nvar, len(mesh.pair_i), mesh.n_elements)
    assert FL.shape == (nvar, mesh.n_low, mesh.n_elements)
    assert lam.shape == FL.shape[1:]
    dF = sch.high(components(u), components(sig), FL, Workspace())
    prep = Stepper(mesh, gas, BCSet({}), mode="convex").prepare(
        components(u), 0.0)
    assert np.array_equal(prep["dF"], dF)
    for elems, gc in zip(mesh.class_elems, mesh.classes):
        FH_ref, FL_ref, lam_ref = _class_pair_arrays_ref(gc, elems, u, sig,
                                                         gas)
        dF_ref = FH_ref.copy()
        dF_ref[:, :gc.n_low] -= FL_ref
        assert np.array_equal(FH[:, :, elems].T, FH_ref)
        assert np.array_equal(FL[:, :, elems].T, FL_ref)
        assert np.array_equal(lam[:, elems].T, lam_ref)
        assert np.array_equal(dF[:, :, elems].T, dF_ref)


def _euler_form_low(sch, u, sig):
    """(F^L, R^L), component first, in the form the low-order scheme took
    before its end table, with the scheme's own rates: the fluxes f_k -
    sigma_k of every direction at every node, the pair fluxes -sum_k n_k
    (f_k,i + f_k,j) + lambda_ij (u_j - u_i), and the interface flux of the
    normal fluxes of both traces, evaluated on the face states."""
    mesh, gas = sch.mesh, sch.low.gas
    uc, sc = components(u), components(sig)
    lam_p, lam_s, _ = sch.rates(u, 0.0, sig)
    f = euler_flux(uc, gas)
    if sc is not None:
        f = tuple(fd - sd for fd, sd in zip(f, sc))
    low = slice(mesh.n_low)
    pi, pj = mesh.pair_i[low], mesh.pair_j[low]
    # n_ij per element, (dim, npairs_low, K), from its class
    n = np.stack([gc.pair_n[low].T for gc in mesh.classes],
                 axis=-1)[..., mesh.class_id]
    FL = (-sum(n[d] * (f[d][:, pi] + f[d][:, pj]) for d in range(len(f)))
          + lam_p * (uc[:, pj] - uc[:, pi]))
    uf, uP = sch.faces(u, 0.0, sig)[:2]
    Rs = interface_flux_low(*sch.face_fluxes(u, 0.0, sig), uf, uP,
                            -0.5 * mesh.slot_wsJ, lam_s)
    R = mesh.scatter[:, low] @ FL + mesh.ops.E.T @ Rs.reshape(
        len(Rs), mesh.n_face_nodes, -1)
    return FL, R


@pytest.mark.parametrize("elem,N", [("line", 3), ("quad", 2), ("quad", 3),
                                    ("tri", 2), ("tri", 3)])
@pytest.mark.parametrize("viscous", [False, True])
def test_end_table_fluxes_match_the_euler_flux_form(elem, N, viscous):
    # the pair fluxes and the low-order residual read the per-end normal
    # flux table; on line and quad meshes every end direction is an axis,
    # so they equal the per-direction form bit for bit, and on tri meshes
    # to roundoff; walls, no-slip and Dirichlet ghosts included
    gas = GasParams(gamma=1.4, mu=5.0) if viscous else GAS
    sch, u = walled_scheme(elem, N, gas)
    sig = sch.gradient(u, 0.0)[2] if viscous else None
    # component first, (nvar, ...)
    results = zip((sch.low_pairs(u, 0.0, sig)[0],
                   sch.low_residual(u, 0.0, sig)[0].T),
                  _euler_form_low(sch, u, sig))
    for a, ref in results:
        if elem != "tri":
            assert np.array_equal(a, ref)
            continue
        scale = np.abs(ref).reshape(len(ref), -1).max(axis=1)
        err = np.abs(a - ref).reshape(len(ref), -1).max(axis=1)
        assert np.all(err <= 1e-14 * scale), err / scale


@pytest.mark.parametrize("elem", ["quad", "tri"])
@pytest.mark.parametrize("viscous", [False, True])
def test_partner_slot_interface_fluxes_are_negations(elem, viscous,
                                                     monkeypatch):
    # a slot and its partner read the same two ends of the flux table with
    # opposite signs, and their normals, weights and rates are equal up to
    # sign, so the interface flux of one is minus the other's, bit for bit
    gas = GAS_V if viscous else GAS
    mesh = periodic_mesh(elem, 3, K=3)
    rng = np.random.default_rng(3)
    u = smooth_state(mesh, gas) * rng.uniform(0.9, 1.1, mesh.xy.shape[:-1]
                                              + (1,))
    sch = Scheme(mesh, gas, BCSet({}))
    sig = sch.gradient(u, 0.0)[2] if viscous else None
    seen = []

    def keep(*args):
        seen.append(interface_flux_low(*args).copy())
        return seen[-1]

    monkeypatch.setattr(rhs_low, "interface_flux_low", keep)
    sch.low_residual(u, 0.0, sig)
    (Rs,) = seen
    assert np.all(Rs != 0.0)
    assert np.array_equal(Rs[:, mesh.slot_exterior], -Rs)


def test_quad_pair_ends_cover_the_face_slots():
    # on quad N=3 the 48 ends of the 24 low-order pairs are 32 distinct
    # (node, +-direction) ends, and the 16 face slots add none
    mesh = periodic_mesh("quad", 3, K=2)
    sch = Scheme(mesh, GAS, BCSet({}))
    gc = mesh.classes[0]
    assert 2 * gc.n_low == 48 and mesh.n_face_nodes == 16
    assert len(sch.wavespeeds(smooth_state(mesh))) == 32 * mesh.n_elements


def test_low_order_positivity_fuzz():
    # the forward Euler step of the low-order scheme at its bound
    # dt = min m / (2 lambda) stays admissible on near-vacuum, Mach-20
    # states: every element and degree, inviscid and viscous, periodic and
    # with wall-Riemann, no-slip and Dirichlet boundaries
    rng = np.random.default_rng(7)
    for case, sch in fuzz_schemes():
        mesh, gas = sch.mesh, sch.low.gas
        for _ in range(10):
            u, p = fuzz_state(rng, mesh, gas)
            assert np.allclose(internal_energy(u), p / (gas.gamma - 1.0),
                               rtol=1e-12, atol=0.0), case
            sig = sch.gradient(u)[2] if gas.viscous else None
            R, lam = sch.low_residual(u, 0.0, sig)
            dt = float((mesh.mass / (2 * lam)).min())
            unew = u + dt * R / mesh.mass[..., None]
            assert np.all(is_admissible(unew)), case


def test_outflow_copy_is_transparent_for_uniform_flow():
    mesh = interval_mesh(0.0, 1.0, 4, 3)
    bcs = BCSet({1: outflow()})
    u = np.broadcast_to(primitive_to_conserved(np.array([1.0, 2.0, 1.0]), GAS),
                        mesh.xy.shape[:-1] + (3,)).copy()
    sch = Scheme(mesh, GAS, bcs)
    for R in (sch.high_residual(u, 0.0), sch.low_residual(u, 0.0)[0]):
        assert np.abs(R).max() < 1e-11
