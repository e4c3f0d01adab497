"""The layout contract at the solver's edge.

Inside, the solver holds its states component first, (nvar, Np, K). The
initial state of ``cli.setup``, what ``advance`` returns and what it hands
its callback keep the variable index last, (K, Np, nvar): the output
writers and the benchmark harness read those, and the harness checks the
final state with ``physics.internal_energy``.
"""

import numpy as np
import pytest
from schemes import components

from posdg import cli
from posdg.physics import internal_energy, internal_energy_cf
from posdg.timestepping import Stepper, advance, ssp_rk3_step

CONFIGS = {
    "vortex-tri-convex": dict(case="vortex", elem="tri", N=2, K=2,
                              mode="convex", t_final=0.03),
    "daru-quad-elementwise": dict(case="daru", elem="quad", N=2, K=2,
                                  mode="elementwise", t_final=0.006),
}


def _setup(name):
    return cli.setup(cli.make_config(CONFIGS[name]))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_setup_and_advance_keep_the_variable_index_last(name):
    case, mesh, stepper, u0, cfl, t_final = _setup(name)
    shape = (mesh.n_elements, mesh.ops.n_nodes, mesh.dim + 2)
    assert u0.shape == shape
    seen = []
    u, diags = advance(stepper, u0, 0.0, t_final, cfl,
                       callback=lambda step, t, u, row, rep:
                       seen.append(u.shape))
    assert len(seen) == len(diags) >= 2
    assert u.shape == shape and set(seen) == {shape}
    assert np.array_equal(internal_energy(u), internal_energy_cf(u.T).T)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_advance_equals_rk3_steps_on_the_component_first_state(name):
    case, mesh, stepper, u0, cfl, t_final = _setup(name)
    dts = []
    u, _ = advance(stepper, u0, 0.0, t_final, cfl,
                   callback=lambda step, t, u, row, rep: dts.append(row.dt))
    fresh = Stepper(mesh, case.gas, case.bcs, mode=stepper.mode)
    w, t = components(u0), 0.0
    for step, dt in enumerate(dts):
        w, _ = ssp_rk3_step(w, t, dt, fresh, step=step)
        t += dt
    assert np.array_equal(u, w.T)
