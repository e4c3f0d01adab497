"""The residual operators of one state, called as ``Stepper.prepare`` calls
them: one face pass (``LowOrderRHS.face_states`` and ``.face_sigmas``) feeds
the LDG gradient, both residuals and the wavespeed bound."""

from posdg.rhs_high import HighOrderRHS, LDGGradient
from posdg.rhs_low import LowOrderRHS


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

    def low_residual(self, u, t=0.0, sigmas=None):
        """(R, lam): the low-order residual and its nodal wavespeeds."""
        return self.low(u, self.faces(u, t, sigmas),
                        self.low.pair_fluxes(u, sigmas))

    def high_residual(self, u, t=0.0, sigmas=None):
        return self.high(u, self.faces(u, t, sigmas), sigmas)

    def max_dt(self, u, t=0.0, sigmas=None):
        return self.low.max_dt(u, self.faces(u, t, sigmas), sigmas)
