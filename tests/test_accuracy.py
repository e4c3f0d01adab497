"""Order of accuracy of the marched schemes on a smooth flow.

The isentropic vortex of strength 3 is smooth and stays far from vacuum,
so no limiter binds on it. Each mode is marched by ``advance`` with N = 3
on a mesh and on its refinement, and the L1 error of the final state
against the exact solution is compared. The rates asserted sit about 0.3
below the measured ones:

* quad, K1D 4 -> 8, t = 0.25: 2.94 in modes none, elementwise and convex;
* tri, K1D 4 -> 8, t = 0.1: 2.24 in modes none and elementwise.

Mode none is the blend with every l = 1, so a limited mode that limits
nowhere marches the same states. Both limiters form the update as mode
none does, u^L + (dt/m) scatter(l dF) with l dF = dF where every l = 1,
so each must equal it bit for bit.

Tri meshes in mode convex are left out: the convex limiter limits there
on this smooth flow (ROADMAP item 9).
"""

from functools import lru_cache

import numpy as np
import pytest

from posdg.cases import error_norms, isentropic_vortex
from posdg.timestepping import Stepper, advance

CASE = isentropic_vortex(3.0)

# (elem, coarse K1D, final time, lowest rate accepted, limited modes)
SETUPS = {"quad": (4, 0.25, 2.6, ("elementwise", "convex")),
          "tri": (4, 0.1, 1.95, ("elementwise",))}


@lru_cache(maxsize=None)
def _march(elem, mode, K1D):
    """(final state, L1 error at the final time, smallest l_e of any
    step)."""
    _, t_final, _, _ = SETUPS[elem]
    mesh = CASE.build_mesh(K1D, 3, elem)
    stepper = Stepper(mesh, CASE.gas, CASE.bcs, mode=mode)
    l_min = [1.0]

    def record(step, t, u, row, rep):
        if rep is not None:
            l_min[0] = min(l_min[0], float(rep.l_elem.min()))

    u, _ = advance(stepper, CASE.ic(mesh.xy), 0.0, t_final,
                   CASE.cfl_for(elem), callback=record, collect=False)
    return u, error_norms(u, mesh, CASE, t=t_final, p=1), l_min[0]


@pytest.mark.parametrize("elem,mode", [("quad", "none"),
                                       ("quad", "elementwise"),
                                       ("quad", "convex"),
                                       ("tri", "none"),
                                       ("tri", "elementwise")])
def test_l1_rate_under_refinement(elem, mode):
    K1D, _, rate_min, _ = SETUPS[elem]
    coarse, fine = _march(elem, mode, K1D)[1], _march(elem, mode, 2 * K1D)[1]
    rate = np.log2(coarse / fine)
    assert rate >= rate_min, f"L1 {coarse:.3e} -> {fine:.3e}, rate {rate:.2f}"


@pytest.mark.parametrize("elem", ["quad", "tri"])
def test_limited_modes_match_mode_none_where_nothing_limits(elem):
    K1D, _, _, limited = SETUPS[elem]
    for K in (K1D, 2 * K1D):
        u_none = _march(elem, "none", K)[0]
        for mode in limited:
            u, _, l_min = _march(elem, mode, K)
            assert l_min == 1.0, f"{mode} limited on K1D={K}: l_e {l_min}"
            assert np.array_equal(u, u_none), f"{mode} K1D={K}"
