"""The paper's positivity guarantee for whole limited stages and steps.

One forward-Euler stage of a limited mode at its own bound dt = min m /
(2 lambda) keeps every node admissible, and with zeta > 0 it keeps
rho >= zeta rho^L and rho e >= zeta (rho e)^L, where u^L = u + dt R / m is
the stage's low-order update. On a periodic mesh the stage of every mode
conserves sum m u to rounding. One SSPRK(3,3) step at dt = CFL times its
bound, restarted from a stage's own bound as ``advance`` restarts it, keeps
every node admissible. The states are the rough draws of the low-order
positivity fuzz (``schemes.fuzz_state``) on each of its cases
(``schemes.fuzz_schemes``).

Both residuals are entropy stable on such draws: the entropy rate sum_i
v_i . R_i of the low-order residual is at most 0, its graph viscosity at
the rate max(beta, Davis) dissipating entropy, and the high-order one's is
at most 0 up to rounding, on periodic and reflecting-wall meshes, inviscid
and viscous.
"""

import numpy as np
import pytest
from schemes import (
    Scheme,
    components,
    fuzz_schemes,
    fuzz_state,
    periodic_mesh,
)

from posdg.bc import BCSet, wall
from posdg.mesh import interval_mesh, rect_mesh
from posdg.physics import (
    GasParams,
    entropy_vars,
    internal_energy,
    internal_energy_cf,
)
from posdg.timestepping import (
    LIMITED_MODES,
    MAX_RETRIES,
    StageBoundError,
    Stepper,
    ssp_rk3_step,
)

# the relative tolerance of the zeta bounds: elementwise mode puts its
# binding node on the bound, which it misses by rounding (by at most
# 3.2e-13 relative on 400 draws of these cases)
BOUND_RTOL = 1e-12
DRAWS = 2
# the conservation tolerance relative to sum m |u|: every column of the
# scatter sums to zero, so only rounding is left (at most 1.8e-14 in mode
# none and 5e-16 in the others on these draws)
CONSERVATION_RTOL = 1e-13
# the step's dt as a fraction of its bound, as advance's cfl
CFL = 0.9

ZETA0_ELEMENTWISE = pytest.mark.xfail(strict=True, reason=(
    "with zeta = 0 the bounds are rho, rho e >= 1e-14, and the elementwise "
    "blend drives its binding node onto rho e = 1e-14, below the rounding "
    "of E - |m|^2 / (2 rho) when E >> 1: rho e lands at or below zero"))


def _draws(rng, sch, case):
    """DRAWS fuzz states on the scheme's mesh, component first; each one's
    rho e is checked against its intended pressure."""
    gas = sch.low.gas
    for _ in range(DRAWS):
        u, p = fuzz_state(rng, sch.mesh, gas)
        assert np.allclose(internal_energy(u), p / (gas.gamma - 1.0),
                           rtol=1e-12, atol=0.0), case
        yield components(u)


@pytest.mark.parametrize("mode,zeta", [
    pytest.param("elementwise", 0.0, marks=ZETA0_ELEMENTWISE),
    ("elementwise", 0.1), ("elementwise", 0.5),
    ("convex", 0.0), ("convex", 0.1), ("convex", 0.5)])
def test_limited_stage_at_its_bound_is_admissible(mode, zeta):
    rng = np.random.default_rng(23)
    for case, sch in fuzz_schemes():
        mesh = sch.mesh
        st = Stepper(mesh, sch.low.gas, sch.low.bcs, mode=mode, zeta=zeta)
        for u in _draws(rng, sch, case):
            prep = st.prepare(u, 0.0)
            dt = prep["bound"]
            uL = u + dt * prep["R"] / mesh.node_mass
            unew = st.apply(u, dt, prep)[0]
            rho, rhoe = unew[0], internal_energy_cf(unew)
            assert rho.min() > 0.0 and rhoe.min() > 0.0, case
            if zeta > 0.0:
                lo = 1.0 - BOUND_RTOL
                assert np.all(rho >= lo * zeta * uL[0]), case
                assert np.all(rhoe >= lo * zeta * internal_energy_cf(uL)), \
                    case


@pytest.mark.parametrize("mode", ["none", "low-only", "elementwise",
                                  "convex"])
def test_stage_at_its_bound_conserves_on_periodic_meshes(mode):
    rng = np.random.default_rng(29)
    for case, sch in fuzz_schemes():
        if case[-1]:     # walled: the boundary fluxes change the totals
            continue
        m = sch.mesh.node_mass
        st = Stepper(sch.mesh, sch.low.gas, sch.low.bcs, mode=mode)
        for u in _draws(rng, sch, case):
            prep = st.prepare(u, 0.0)
            unew, rep = st.apply(u, prep["bound"], prep)
            drift = (unew * m).sum(axis=(1, 2)) - (u * m).sum(axis=(1, 2))
            scale = (np.abs(u) * m).sum(axis=(1, 2))
            assert np.all(np.abs(drift) <= CONSERVATION_RTOL * scale), case
            if mode in LIMITED_MODES:
                # the limiter is active, so its blend is what conserves
                assert rep.l_elem.min() < 1.0, case


@pytest.mark.parametrize("mode", ["low-only", "elementwise", "convex"])
def test_step_at_cfl_times_its_bound_is_admissible(mode):
    rng = np.random.default_rng(29)
    for case, sch in fuzz_schemes():
        st = Stepper(sch.mesh, sch.low.gas, sch.low.bcs, mode=mode)
        for u in _draws(rng, sch, case):
            prep = st.prepare(u, 0.0)
            dt = CFL * prep["bound"]
            for _ in range(MAX_RETRIES + 1):
                try:
                    unew = ssp_rk3_step(u, 0.0, dt, st, prep)[0]
                    break
                except StageBoundError as exc:
                    # the later stages overwrote prep, as in advance
                    dt = CFL * exc.bound
                    prep = st.prepare(u, 0.0)
            else:
                pytest.fail(f"{case}: refused after {MAX_RETRIES} restarts")
            assert unew[0].min() > 0.0, case
            assert internal_energy_cf(unew).min() > 0.0, case


# the high-order entropy rate's tolerance relative to sum_i |v_i . R_i|:
# its volume term conserves entropy, so the rate is the interface flux's
# dissipation less rounding (at worst -3.2e-7 relative on these draws)
ENTROPY_RTOL = 1e-8


def _entropy_schemes():
    """Line, quad and tri meshes at N = 2 and 3, periodic and with mirror
    walls all round, inviscid and with mu = 0.01."""
    for elem in ("line", "quad", "tri"):
        for N in (2, 3):
            if elem == "line":
                walled = interval_mesh(0.0, 2.0, 6, N,
                                       classify=lambda x: np.ones(len(x),
                                                                  int))
            else:
                walled = rect_mesh(elem, (0.0, 2.0, -1.0, 1.0), 3, 2, N,
                                   classify=lambda xy: np.ones(len(xy),
                                                               int))
            for gas in (GasParams(gamma=1.4),
                        GasParams(gamma=1.4, mu=0.01, Pr=0.75)):
                yield (elem, N, gas.viscous, False), Scheme(
                    periodic_mesh(elem, N, K=2), gas, BCSet({}))
                yield (elem, N, gas.viscous, True), Scheme(
                    walled, gas, BCSet({1: wall("mirror")}))


def test_residuals_dissipate_entropy_on_rough_states():
    rng = np.random.default_rng(11)
    for case, sch in _entropy_schemes():
        gas = sch.low.gas
        for _ in range(DRAWS):
            u, _ = fuzz_state(rng, sch.mesh, gas)
            sig = sch.gradient(u)[2] if gas.viscous else None
            v = entropy_vars(u, gas)
            low = v * sch.low_residual(u, 0.0, sig)[0]
            high = v * sch.high_residual(u, 0.0, sig)
            assert np.sum(low) < 0.0, case
            assert np.sum(high) <= ENTROPY_RTOL * np.sum(np.abs(high)), case
