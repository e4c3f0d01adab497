"""The residual operators of one state, called as ``Stepper.prepare`` calls
them: one face pass (``LowOrderRHS.face_states`` and ``.face_sigmas``) feeds
the LDG gradient, both residuals and the wavespeeds, and one wavespeed
evaluation (``LowOrderRHS.wavespeeds``) feeds the low-order pair fluxes, the
low-order residual and the dt bound."""

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

    def wavespeeds(self, u, t=0.0, sigmas=None):
        """The per-end wavespeeds w that the low-order kernels read."""
        return self.low.wavespeeds(u, self.faces(u, t, sigmas), sigmas)

    def low_pairs(self, u, t=0.0, sigmas=None):
        """(P, lambda) per class: the low-order pair fluxes and weights."""
        return self.low.pair_fluxes(u, self.wavespeeds(u, t, sigmas), sigmas)

    def low_residual(self, u, t=0.0, sigmas=None):
        """(R, lam): the low-order residual and its nodal wavespeeds."""
        faces = self.faces(u, t, sigmas)
        w = self.low.wavespeeds(u, faces, sigmas)
        return self.low(u, faces, w, self.low.pair_fluxes(u, w, sigmas))

    def high_residual(self, u, t=0.0, sigmas=None):
        return self.high(u, self.faces(u, t, sigmas), sigmas)

    def max_dt(self, u, t=0.0, sigmas=None):
        return self.low.max_dt(self.wavespeeds(u, t, sigmas))
