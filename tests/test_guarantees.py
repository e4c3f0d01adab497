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
"""

import numpy as np
import pytest
from schemes import components, fuzz_schemes, fuzz_state

from posdg.physics import internal_energy, internal_energy_cf
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
