"""SSP-RK3 stepping: order, convexity, admissibility, full-run behavior."""

import logging

import numpy as np
import pytest
from schemes import Scheme, components

from posdg import cli, rhs_low
from posdg.bc import BCSet, dirichlet
from posdg.mesh import interval_mesh, rect_mesh
from posdg.physics import (
    GasParams,
    entropy,
    internal_energy,
    is_admissible,
    primitive_to_conserved,
)
from posdg.rhs_high import HighOrderRHS
from posdg.timestepping import (
    MODES,
    RESTART_MARGIN,
    StageBoundError,
    Stepper,
    _check_dt,
    _check_state,
    advance,
    ssp_rk3_step,
)

GAS = GasParams(gamma=1.4)


class OdeStepper:
    """u' = a u as a fake stage operator, to isolate the RK combinatorics.

    Its states are one node of a 1D gas at rest, (rho, m, E) = x (1, 0, 1)
    with x > 0, (3, 1, 1) component first, which every stage keeps
    admissible; its stages have no positivity bound, so the stage checks of
    ``ssp_rk3_step`` always run and pass. x is the state's ``[0, 0, 0]``.
    """

    def __init__(self, a=1.0):
        self.a = a
        self.gas = GAS

    @staticmethod
    def state(x):
        return x * np.array([1.0, 0.0, 1.0]).reshape(3, 1, 1)

    def prepare(self, u, t):
        return {"du": self.a * u, "bound": np.inf}

    def apply(self, u, dt, prep):
        return u + dt * prep["du"], None


def test_rk3_zero_step_is_identity():
    u = OdeStepper.state(1.7)
    out, _ = ssp_rk3_step(u, 0.0, 0.0, OdeStepper())
    assert np.allclose(out, u, rtol=1e-15)


def test_rk3_third_order_on_linear_ode():
    errs = []
    for dt in (0.1, 0.05, 0.025):
        u = OdeStepper.state(1.0)
        t = 0.0
        while t < 1.0 - 1e-12:
            u, _ = ssp_rk3_step(u, t, dt, OdeStepper())
            t += dt
        errs.append(abs(float(u[0, 0, 0]) - np.e))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert 2.7 < r1 < 3.3 and 2.7 < r2 < 3.3, (errs, r1, r2)


def test_rk3_single_step_local_error():
    # local truncation error of one step must be O(dt^4)
    errs = []
    for dt in (0.2, 0.1):
        u, _ = ssp_rk3_step(OdeStepper.state(1.0), 0.0, dt, OdeStepper())
        taylor = 1 + dt + dt ** 2 / 2 + dt ** 3 / 6
        assert abs(float(u[0, 0, 0]) - taylor) < 1e-14
        errs.append(abs(float(u[0, 0, 0]) - np.exp(dt)))
    assert 3.7 < np.log2(errs[0] / errs[1]) < 4.3


def _wave_setup(K=12, N=3):
    mesh = interval_mesh(0.0, 2 * np.pi, K, N, periodic=True)
    x = mesh.xy[..., 0]
    prim = np.empty(mesh.xy.shape[:-1] + (3,))
    prim[..., 0] = 2.0 + 0.5 * np.sin(x)
    prim[..., 1] = 0.7
    prim[..., 2] = 1.2
    return mesh, primitive_to_conserved(prim, GAS)


@pytest.mark.parametrize("mode", ["none", "elementwise", "convex", "low-only"])
def test_advance_conserves_on_periodic_mesh(mode):
    mesh, u0 = _wave_setup()
    st = Stepper(mesh, GAS, BCSet({}), mode=mode)
    u, diags = advance(st, u0, 0.0, 0.3, cfl=0.9)
    tot0 = (mesh.mass[..., None] * u0).sum(axis=(0, 1))
    tot1 = (mesh.mass[..., None] * u).sum(axis=(0, 1))
    assert np.abs(tot1 - tot0).max() < 1e-11 * np.abs(tot0).max()
    assert diags[-1].t == 0.3
    assert np.all(is_admissible(u))


@pytest.mark.parametrize("elem", ["quad", "tri"])
@pytest.mark.parametrize("mode", ["elementwise", "convex"])
def test_advance_conserves_with_the_limiter_active(elem, mode):
    # a periodic near-vacuum box in 2D: both limiters bind on the jump, and
    # every limited step still conserves mass, momentum and energy
    mesh = rect_mesh(elem, (0.0, 1.0, 0.0, 1.0), 6, 6, 2,
                     periodic=(True, True))
    x, y = mesh.xy[..., 0], mesh.xy[..., 1]
    inside = (np.abs(x - 0.5) < 0.25) & (np.abs(y - 0.45) < 0.2)
    hi = primitive_to_conserved(np.array([1.0, 0.3, -0.2, 1.0]), GAS)
    lo = primitive_to_conserved(np.array([1e-3, 0.0, 0.1, 1e-7]), GAS)
    u0 = np.where(inside[..., None], hi, lo)
    st = Stepper(mesh, GAS, BCSet({}), mode=mode)
    bound = st.prepare(components(u0), 0.0)["bound"]
    l_min = []
    u, diags = advance(st, u0, 0.0, 3.5 * 0.5 * bound, cfl=0.5,
                       callback=lambda *a: l_min.append(a[-1].l_elem.min()))
    assert len(diags) >= 3 and min(l_min) < 1.0
    tot0 = (mesh.mass[..., None] * u0).sum(axis=(0, 1))
    scale = (mesh.mass[..., None] * np.abs(u0)).sum(axis=(0, 1))
    for d in diags:
        assert np.all(np.abs(d.totals - tot0) <= 1e-12 * scale)
    assert np.all(is_admissible(u))


def test_advance_entropy_nonincreasing_low_order():
    mesh, u0 = _wave_setup()
    st = Stepper(mesh, GAS, BCSet({}), mode="low-only")
    u, diags = advance(st, u0, 0.0, 0.5, cfl=0.5)
    etas = [float((mesh.mass * entropy(u0, GAS)).sum())]
    etas += [d.entropy for d in diags]
    drops = np.diff(etas)
    assert np.all(drops <= 1e-10 * abs(etas[0]))


def _riemann_setup(K=40, N=2):
    mesh = interval_mesh(0.0, 1.0, K, N)
    x = mesh.xy[..., 0]
    uL = primitive_to_conserved(np.array([1.0, 0.0, 1.0]), GAS)
    uR = primitive_to_conserved(np.array([0.125, 0.0, 0.1]), GAS)
    u0 = np.where(x[..., None] < 0.5, uL, uR)

    def g(xb, t):
        return np.where(xb[:, :1] < 0.5, uL, uR)

    return mesh, u0, BCSet({1: dirichlet(g)})


@pytest.mark.parametrize("mode", ["elementwise", "convex", "low-only"])
def test_advance_sod_shock_stays_admissible(mode):
    mesh, u0, bcs = _riemann_setup()
    st = Stepper(mesh, GAS, bcs, mode=mode, zeta=0.1)
    u, diags = advance(st, u0, 0.0, 0.15, cfl=0.5)
    assert np.all(is_admissible(u))
    assert min(d.min_rho for d in diags) > 0
    assert min(d.min_rhoe for d in diags) > 0


@pytest.mark.parametrize("mode", ["elementwise", "convex"])
def test_limiter_activates_on_strong_jump(mode):
    # near-vacuum Riemann data must engage the blending, and the run must
    # stay admissible throughout; on the periodic mesh the limited run must
    # also conserve to roundoff
    gas = GasParams(gamma=5.0 / 3.0)
    uL = np.array([1.0, 0.0, 0.1])
    uR = np.array([1e-3, 0.0, 1e-10])

    def g(xb, t):
        return np.where(xb[:, :1] < 0.33, uL, uR)

    for periodic in (False, True):
        mesh = interval_mesh(0.0, 1.0, 50, 2, periodic=periodic)
        x = mesh.xy[..., 0]
        u0 = np.where(x[..., None] < 0.33, uL, uR)
        bcs = BCSet({}) if periodic else BCSet({1: dirichlet(g)})
        st = Stepper(mesh, gas, bcs, mode=mode, zeta=0.1)
        u, diags = advance(st, u0, 0.0, 0.1, cfl=0.5)
        assert np.all(is_admissible(u))
        assert max(d.limited_fraction for d in diags) > 0
        assert min(d.min_rho for d in diags) > 0
        if periodic:
            tot0 = (mesh.mass[..., None] * u0).sum(axis=(0, 1))
            tot1 = (mesh.mass[..., None] * u).sum(axis=(0, 1))
            assert np.abs(tot1 - tot0).max() < 1e-12 * np.abs(tot0).max()


def test_advance_shock_capture():
    mesh, u0, bcs = _riemann_setup(K=24)
    st = Stepper(mesh, GAS, bcs, mode="elementwise", zeta=0.1,
                 shock_capture=True)
    u, diags = advance(st, u0, 0.0, 0.05, cfl=0.5)
    assert np.all(is_admissible(u))


def test_advance_hits_final_time_exactly():
    mesh, u0 = _wave_setup(K=6, N=2)
    st = Stepper(mesh, GAS, BCSet({}), mode="low-only")
    _, diags = advance(st, u0, 0.0, 0.0789, cfl=0.9)
    assert diags[-1].t == 0.0789


def test_advance_rejects_bad_cfl():
    mesh, u0 = _wave_setup(K=4, N=2)
    st = Stepper(mesh, GAS, BCSet({}), mode="low-only")
    with pytest.raises(ValueError):
        advance(st, u0, 0.0, 0.1, cfl=1.5)


def test_stepper_rejects_unknown_mode():
    mesh, _ = _wave_setup(K=4, N=2)
    with pytest.raises(ValueError):
        Stepper(mesh, GAS, BCSet({}), mode="中order")


@pytest.mark.parametrize("zeta", [-0.1, 1.5, float("nan")])
def test_stepper_rejects_zeta_outside_unit_interval(zeta):
    mesh, _ = _wave_setup(K=4, N=2)
    with pytest.raises(ValueError, match=r"zeta must lie in \[0, 1\]"):
        Stepper(mesh, GAS, BCSet({}), mode="elementwise", zeta=zeta)
    for ok in (0.0, 1.0):
        assert Stepper(mesh, GAS, BCSet({}), zeta=ok).zeta == ok


@pytest.mark.parametrize("mode", MODES)
def test_shock_capture_needs_a_limited_mode(mode):
    # the shock indicator caps l, so modes without one reject it
    mesh, _ = _wave_setup(K=4, N=2)
    if mode in ("none", "low-only"):
        with pytest.raises(ValueError, match="shock_capture needs a mode in"):
            Stepper(mesh, GAS, BCSet({}), mode=mode, shock_capture=True)
    else:
        assert Stepper(mesh, GAS, BCSet({}), mode=mode,
                       shock_capture=True).shock_capture


def test_diagnostics_rows():
    mesh, u0 = _wave_setup(K=6, N=2)
    st = Stepper(mesh, GAS, BCSet({}), mode="elementwise")
    _, diags = advance(st, u0, 0.0, 0.05, cfl=0.8)
    row = dict(zip(diags[0].columns(mesh.dim), diags[0].values()))
    for key in ("step", "t", "dt", "min_rho", "min_rhoe", "entropy",
                "limited_fraction", "mass", "mom_x", "energy"):
        assert key in row
    assert row["min_rho"] > 0


@pytest.mark.parametrize("raw", [
    dict(case="vortex", elem="tri", N=3, K=2, mode="convex", t_final=0.05),
    dict(case="daru", elem="quad", N=3, K=1, mode="elementwise",
         t_final=0.04)], ids=["vortex-tri-convex", "daru-elementwise"])
def test_diagnostics_rows_match_a_variable_last_oracle(raw):
    # every row equals the sums and minima of the variable-last state the
    # callback sees, formed as (K, Np, nvar) sums; dt is the cfl share of
    # the pre-step state's bound, formed by a second Stepper
    _, mesh, st, u0, cfl, t_final = cli.setup(cli.make_config(raw))
    gas = st.gas
    ref = Stepper(mesh, gas, st.low.bcs, mode=st.mode, zeta=st.zeta)
    seen = [(0, 0.0, np.array(u0, dtype=float), None)]

    def keep(step, t, u, row, rep):
        seen.append((step, t, u.copy(), rep))

    _, diags = advance(st, u0, 0.0, t_final, cfl, callback=keep)
    assert len(diags) == len(seen) - 1 > 3
    for row, (step0, t0, u_prev, _), (step, t, u, rep) in zip(
            diags, seen, seen[1:]):
        lam = ref.prepare(components(u_prev), t0)["lam"]
        bound = float((mesh.mass / (2.0 * lam.T)).min())
        assert (row.step, row.t) == (step, t) == (step0 + 1, t0 + row.dt)
        assert row.dt == min(cfl * bound, t_final - t0)
        assert row.min_rho == u[..., 0].min()
        assert row.min_rhoe == internal_energy(u).min()
        assert row.limited_fraction == float(np.mean(rep.l_elem < 1.0))
        totals = (mesh.mass[..., None] * u).sum(axis=(0, 1))
        scale = (mesh.mass[..., None] * np.abs(u)).sum(axis=(0, 1))
        assert np.all(np.abs(row.totals - totals) <= 1e-13 * scale)
        eta = float((mesh.mass * entropy(u, gas)).sum())
        assert abs(row.entropy - eta) <= 1e-13 * abs(eta)


def test_viscous_run_smoke():
    gas = GasParams(gamma=1.4, mu=0.01, Pr=0.75)
    mesh, u0 = _wave_setup(K=8, N=2)
    st = Stepper(mesh, gas, BCSet({}), mode="elementwise")
    u, diags = advance(st, u0, 0.0, 0.05, cfl=0.5)
    assert np.all(is_admissible(u))
    assert internal_energy(u).min() > 0


def test_stage_dt_check_names_step_stage_node_and_margin():
    mesh, u0 = _wave_setup(K=12, N=3)
    st = Stepper(mesh, GAS, BCSet({}), mode="convex")
    u0 = components(u0)
    prep = st.prepare(u0, 0.25)
    bound = prep["bound"]
    ratio = mesh.mass / (2.0 * prep["lam"].T)
    k, i = np.unravel_index(np.argmin(ratio), ratio.shape)
    with pytest.raises(FloatingPointError) as err:
        ssp_rk3_step(u0, 0.25, 3.0 * bound, st, prep, step=7)
    msg = str(err.value)
    for field in ("step 7", "stage 1", "t=0.25", f"element {k}, node {i}",
                  f"bound m/(2 lambda)={bound:.6e}",
                  f"dt={3.0 * bound:.6e}", "dt/bound=3"):
        assert field in msg, (field, msg)
    assert err.value.bound == bound


def _state_2d():
    """An admissible (nvar, Np, K) state on a small quad mesh."""
    mesh = rect_mesh("quad", (0.0, 1.0, 0.0, 1.0), 3, 2, 2,
                     periodic=(True, True))
    rng = np.random.default_rng(5)
    shape = mesh.xy.shape[:-1]
    prim = np.stack([rng.uniform(0.5, 2.0, shape),
                     rng.uniform(-1.0, 1.0, shape),
                     rng.uniform(-1.0, 1.0, shape),
                     rng.uniform(0.5, 2.0, shape)], axis=-1)
    return components(primitive_to_conserved(prim, GAS))


NAN, INF = np.nan, np.inf


@pytest.mark.parametrize("var,value,kind", [
    (0, NAN, "non-finite"), (2, NAN, "non-finite"), (3, NAN, "non-finite"),
    (0, INF, "non-finite"), (0, -INF, "non-finite"),
    (1, INF, "non-finite"), (2, -INF, "non-finite"),
    (3, INF, "non-finite"), (3, -INF, "non-finite"),
    (0, -0.5, "rho"), (0, 0.0, "rho"), (3, 0.0, "rhoe"), (3, -1.0, "rhoe")])
def test_check_state_names_the_first_bad_node(var, value, kind):
    # the state is (nvar, Np, K); the message indexes it as advance returns
    # it, (K, Np, nvar), and names the first bad node in that order
    u = _state_2d()
    _check_state(u, 4, 2, 0.5)
    for k, i in ((5, 0), (2, 3)):
        u[var, i, k] = value
        if kind == "rhoe":
            # rho e = value exactly: E = value + |m|^2 / (2 rho)
            u[var, i, k] = value + 0.5 * (u[1, i, k] ** 2 + u[2, i, k] ** 2
                                          ) / u[0, i, k]
    where = "step 4 stage 2 t=0.5 (element 2, node 3"
    with np.errstate(divide="ignore"):       # rho = 0 at a moving node
        if kind == "non-finite":
            expected = f"non-finite state at {where})"
        else:
            node = u[:, 3, 2]
            expected = (f"inadmissible state at {where}: rho={node[0]:.3e}, "
                        f"rhoe={internal_energy(node):.3e})")
        with pytest.raises(FloatingPointError) as err:
            _check_state(u, 4, 2, 0.5)
    assert str(err.value) == expected


def test_check_state_reports_a_non_finite_state_before_an_inadmissible_one():
    u = _state_2d()
    u[0, 1, 0] = -1.0
    u[3, 2, 4] = NAN
    with pytest.raises(FloatingPointError, match="^non-finite state at step "
                       r"1 stage 3 t=0 \(element 4, node 2\)$"):
        _check_state(u, 1, 3, 0.0)


@pytest.mark.parametrize("value,kind", [(-1.0, "inadmissible"),
                                        (NAN, "non-finite")])
def test_advance_rejects_a_bad_initial_state_before_any_step(caplog, value,
                                                             kind):
    # a bad u0 fails as the state of step 0, stage 0, with its node named;
    # left to the first prepare, its rates make dt NaN, and every restart
    # of the step fails the stage bound again
    cfg = cli.make_config(dict(case="vortex", elem="tri", N=3, K=2,
                               mode="convex", t_final=0.05))
    _, _, st, u0, cfl, t_final = cli.setup(cfg)
    u0 = u0.copy()
    u0[1, 4, 0] = value                   # rho of element 1, node 4
    with caplog.at_level(logging.INFO, logger="posdg"):
        with pytest.raises(FloatingPointError, match=(
                f"^{kind} state at step 0 stage 0 t=0 "
                r"\(element 1, node 4[:)]")):
            advance(st, u0, 0.0, t_final, cfl)
    assert "restarting" not in caplog.text


def _mach20_setup():
    # the first elementwise-limited stage of the Mach 20 viscous shock has
    # a positivity bound well below the pre-step one
    cfg = cli.make_config(dict(case="viscous-shock-m20", N=3, K=40,
                               mode="elementwise"))
    _, _, st, u0, cfl, _ = cli.setup(cfg)
    return st, u0, cfl


def test_stage_dt_check_sees_later_stages():
    st, u0, cfl = _mach20_setup()
    u0 = components(u0)
    prep = st.prepare(u0, 0.0)
    with pytest.raises(StageBoundError, match="step 0 stage 2 t=0 "):
        ssp_rk3_step(u0, 0.0, cfl * prep["bound"], st, prep)


def test_advance_restarts_step_from_stage_bound():
    st, u0, cfl = _mach20_setup()
    first = cfl * st.prepare(components(u0), 0.0)["bound"]
    u, diags = advance(st, u0, 0.0, 3e-4, cfl)
    assert diags[0].dt < 0.5 * first
    assert diags[-1].t == 3e-4
    assert np.all(is_admissible(u))


def test_restart_at_cfl_one_goes_below_the_stage_bound(caplog):
    # at cfl = 1 a restart at the failing stage's bound itself lands just
    # above the restarted stage's own bound again: LeBlanc in elementwise
    # mode once gave up at step 17, stage 2, with dt/bound = 1. Restarted
    # at (1 - RESTART_MARGIN) times the bound, it marches on; the stage
    # checks still refuse every dt above a stage's bound.
    cfg = cli.make_config(dict(case="leblanc", N=3, K=100,
                               mode="elementwise", cfl=1.0))
    _, _, st, u0, cfl, t_final = cli.setup(cfg)
    assert cfl == 1.0 and RESTART_MARGIN > 0.0

    class Done(Exception):
        pass

    rows = []

    def stop(step, t, u, row, rep):
        rows.append(row)
        if step == 20:
            raise Done

    with caplog.at_level(logging.INFO, logger="posdg"), \
            pytest.raises(Done):
        advance(st, u0, 0.0, t_final, cfl, callback=stop, collect=False)
    assert len(rows) == 20
    assert "restarting" in caplog.text
    assert all(r.min_rho > 0.0 and r.min_rhoe > 0.0 for r in rows)


def test_restarted_step_equals_a_fresh_step():
    # the stages of an abandoned attempt overwrite the first stage's dF in
    # the Stepper's workspace; a restart must not blend with it
    st, u0, cfl = _mach20_setup()
    first = {}

    def keep(step, t, u, row, rep):
        first.setdefault("u", u)
        first.setdefault("dt", row.dt)

    advance(st, u0, 0.0, 3e-4, cfl, callback=keep)
    u0 = components(u0)
    assert first["dt"] < 0.5 * cfl * st.prepare(u0, 0.0)["bound"]
    fresh = _mach20_setup()[0]
    ref, _ = ssp_rk3_step(u0, 0.0, first["dt"], fresh, fresh.prepare(u0, 0.0))
    assert np.array_equal(first["u"], ref.T)


def test_stages_reuse_the_stepper_workspace():
    cfg = cli.make_config(dict(case="vortex", elem="tri", N=3, K=2,
                               mode="convex", t_final=0.05))
    _, _, st, u0, cfl, t_final = cli.setup(cfg)
    addresses = [[dF.ctypes.data for dF in st.prepare(u, 0.0)["dF"]]
                 for u in (components(u0), components(1.01 * u0))]
    assert addresses[0] == addresses[1]
    sizes = []
    _, diags = advance(st, u0, 0.0, t_final, cfl,
                       callback=lambda *args: sizes.append(st.ws.nbytes))
    assert len(diags) > 3
    assert sizes[0] > 0 and set(sizes) == {sizes[0]}


def test_none_mode_sizes_dt_with_viscous_wavespeed():
    # strong viscosity, so the viscous bar-state speed exceeds Davis'
    gas = GasParams(gamma=1.4, mu=5.0)
    mesh, u0 = _wave_setup(K=8, N=2)
    st = Stepper(mesh, gas, BCSet({}), mode="none")
    sch = Scheme(mesh, gas, BCSet({}))
    sig = sch.gradient(u0, 0.0)[2]
    _, diags = advance(st, u0, 0.0, 0.05, cfl=0.5)
    assert diags[0].dt == 0.5 * sch.max_dt(u0, 0.0, sig)
    assert diags[0].dt < 0.5 * sch.max_dt(u0, 0.0, None)


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_checks_its_stage_bound(mode):
    mesh, u0 = _wave_setup()
    st = Stepper(mesh, GAS, BCSet({}), mode=mode)
    prep = st.prepare(components(u0), 0.0)
    with pytest.raises(StageBoundError):
        _check_dt(st, prep, 10.0 * prep["bound"], 0, 1, 0.0)


@pytest.mark.parametrize("mode", MODES)
def test_high_order_pair_fluxes_once_per_stage_but_in_low_only(monkeypatch,
                                                               mode):
    # every mode but low-only steps toward u^L + P, P the scatter of
    # dF = F^H - F^L: one F^H per stage
    calls = []
    method = HighOrderRHS.pair_fluxes

    def counted(self, *args, **kwargs):
        calls.append(1)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(HighOrderRHS, "pair_fluxes", counted)
    mesh, u0 = _wave_setup()
    st = Stepper(mesh, GAS, BCSet({}), mode=mode)
    _, diags = advance(st, u0, 0.0, 0.3, cfl=0.9)
    assert len(calls) == (0 if mode == "low-only" else 3) * len(diags)


@pytest.mark.parametrize("case", ["sine-shock", "viscous-shock"])
@pytest.mark.parametrize("mode", ["none", "elementwise", "convex", "low-only"])
def test_boundary_conditions_evaluated_once_per_stage(monkeypatch, case, mode):
    # one face pass per stage feeds the LDG gradient, the wavespeeds and the
    # interface flux alike
    calls = []
    method = BCSet.exterior_state

    def counted(self, *args, **kwargs):
        calls.append(1)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(BCSet, "exterior_state", counted)
    cfg = cli.make_config(dict(case=case, N=3, K=20, mode=mode,
                               t_final=0.01))
    _, _, st, u0, cfl, t_final = cli.setup(cfg)
    _, diags = advance(st, u0, 0.0, t_final, cfl)
    assert len(diags) > 1
    assert len(calls) == 3 * len(diags)


@pytest.mark.parametrize("case", ["sine-shock", "viscous-shock"])
@pytest.mark.parametrize("mode", ["none", "elementwise", "convex", "low-only"])
def test_zhang_beta_only_for_viscous_gases(monkeypatch, case, mode):
    # inviscid wavespeeds are Davis' alone; viscous ones evaluate beta once
    # per wavespeed table, one per stage
    calls = []
    method = rhs_low.zhang_beta

    def counted(*args, **kwargs):
        calls.append(1)
        return method(*args, **kwargs)

    monkeypatch.setattr(rhs_low, "zhang_beta", counted)
    cfg = cli.make_config(dict(case=case, N=3, K=20, mode=mode,
                               t_final=0.01))
    _, _, st, u0, cfl, t_final = cli.setup(cfg)
    _, diags = advance(st, u0, 0.0, t_final, cfl)
    assert len(diags) > 1
    if not st.gas.viscous:
        assert calls == []
    else:
        assert len(calls) == 3 * len(diags)
