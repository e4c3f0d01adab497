"""The residual operators of one state, called as ``Stepper.prepare`` calls
them: one face pass (``LowOrderRHS.face_states`` and ``.face_sigmas``) feeds
the LDG gradient, both residuals and the wavespeeds, and one wavespeed
evaluation (``LowOrderRHS.wavespeeds``) feeds the low-order pair fluxes, the
low-order residual and the dt bound. The pair kernels take the node states
component first, (nvar, Np, K): ``components`` gives that view."""

import numpy as np

from posdg.rhs_high import HighOrderRHS, LDGGradient
from posdg.rhs_low import LowOrderRHS


def components(a):
    """(K, Np, nvar) node values as the pair kernels read them, (nvar, Np, K);
    a tuple of them (the viscous fluxes) or None maps through."""
    if a is None or isinstance(a, np.ndarray):
        return None if a is None else a.T
    return tuple(x.T for x in a)


class Scheme:
    """Low- and high-order residuals, LDG gradient and dt bound of a mesh."""

    def __init__(self, mesh, gas, bcs, lf_dissipation=True):
        self.mesh = mesh
        self.low = LowOrderRHS(mesh, gas, bcs)
        self.high = HighOrderRHS(mesh, gas, lf_dissipation)
        self.ldg = LDGGradient(mesh, gas)

    def faces(self, u, t=0.0, sigmas=None):
        """(uf, uP, sigf, sigP, nrm), as ``Stepper.prepare`` keeps them."""
        uf, uP, nrm = self.low.face_states(u, t)
        return (uf, uP, *self.low.face_sigmas(sigmas), nrm)

    def gradient(self, u, t=0.0):
        """(v, thetas, sigmas) of the LDG gradient."""
        return self.ldg(u, self.low.face_states(u, t)[1])

    def wavespeeds(self, u, t=0.0, sigmas=None):
        """The per-end wavespeeds w that the low-order kernels read."""
        return self.low.wavespeeds(u, self.faces(u, t, sigmas), sigmas)

    def low_pairs(self, u, t=0.0, sigmas=None):
        """(P, lambda): the low-order pair fluxes and weights."""
        return self.low.pair_fluxes(components(u),
                                    self.wavespeeds(u, t, sigmas),
                                    components(sigmas))

    def high_pairs(self, u, sigmas=None):
        """F^H: the high-order pair fluxes."""
        return self.high.pair_fluxes(components(u), components(sigmas))

    def low_residual(self, u, t=0.0, sigmas=None):
        """(R, lam): the low-order residual and its nodal wavespeeds."""
        faces = self.faces(u, t, sigmas)
        w = self.low.wavespeeds(u, faces, sigmas)
        return self.low(u, faces, w, self.low.pair_fluxes(
            components(u), w, components(sigmas)))

    def high_residual(self, u, t=0.0, sigmas=None):
        return self.high(components(u), self.faces(u, t, sigmas),
                         components(sigmas))

    def max_dt(self, u, t=0.0, sigmas=None):
        return self.low.max_dt(self.wavespeeds(u, t, sigmas))
