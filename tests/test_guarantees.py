"""The paper's positivity guarantee for whole limited stages.

One forward-Euler stage of a limited mode at its own bound dt = min m /
(2 lambda) keeps every node admissible, and with zeta > 0 it keeps
rho >= zeta rho^L and rho e >= zeta (rho e)^L, where u^L = u + dt R / m is
the stage's low-order update. The states are the rough draws of the
low-order positivity fuzz (``schemes.fuzz_state``) on each of its cases
(``schemes.fuzz_schemes``).
"""

import numpy as np
import pytest
from schemes import components, fuzz_schemes, fuzz_state

from posdg.physics import internal_energy, internal_energy_cf
from posdg.timestepping import Stepper

# the relative tolerance of the zeta bounds: elementwise mode puts its
# binding node on the bound, which it misses by rounding (by at most
# 3.2e-13 relative on 400 draws of these cases)
BOUND_RTOL = 1e-12
DRAWS = 2

ZETA0_ELEMENTWISE = pytest.mark.xfail(strict=True, reason=(
    "with zeta = 0 the bounds are rho, rho e >= 1e-14, and the elementwise "
    "blend drives its binding node onto rho e = 1e-14, below the rounding "
    "of E - |m|^2 / (2 rho) when E >> 1: rho e lands at or below zero"))


@pytest.mark.parametrize("mode,zeta", [
    pytest.param("elementwise", 0.0, marks=ZETA0_ELEMENTWISE),
    ("elementwise", 0.1), ("elementwise", 0.5),
    ("convex", 0.0), ("convex", 0.1), ("convex", 0.5)])
def test_limited_stage_at_its_bound_is_admissible(mode, zeta):
    rng = np.random.default_rng(23)
    for case, sch in fuzz_schemes():
        mesh, gas = sch.mesh, sch.low.gas
        st = Stepper(mesh, gas, sch.low.bcs, mode=mode, zeta=zeta)
        for _ in range(DRAWS):
            u, p = fuzz_state(rng, mesh, gas)
            assert np.allclose(internal_energy(u), p / (gas.gamma - 1.0),
                               rtol=1e-12, atol=0.0), case
            u = components(u)
            prep = st.prepare(u, 0.0)
            dt = prep["bound"]
            uL = u + dt * prep["R"] / mesh.node_mass
            unew = st.apply(u, 0.0, dt, prep)[0]
            rho, rhoe = unew[0], internal_energy_cf(unew)
            assert rho.min() > 0.0 and rhoe.min() > 0.0, case
            if zeta > 0.0:
                lo = 1.0 - BOUND_RTOL
                assert np.all(rho >= lo * zeta * uL[0]), case
                assert np.all(rhoe >= lo * zeta * internal_energy_cf(uL)), \
                    case
