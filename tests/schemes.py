"""The residual operators of one state, called as ``Stepper.prepare`` calls
them: one face pass (``LowOrderRHS.face_states`` and ``.face_sigmas``) feeds
the LDG gradient, both residuals and the end tables, and one pass over the
ends (``LowOrderRHS.wavespeeds``) forms the wavespeeds and the normal
fluxes. The wavespeeds feed the rates (``LowOrderRHS.rates``), which feed
the low-order pair fluxes, the low-order residual and the dt bound; the
normal fluxes feed the low-order pair fluxes and the interface flux. The
high-order residual is the low-order one plus the scatter of the pair
differences F^H - F^L: the update of mode ``none``, and the end of every
limiter's blend.

The solver holds node values component first, (nvar, Np, K), and face
values as (nvar, Nfp * K); the tests build their states with the variable
index last, (K, Np, nvar), as ``advance`` takes them. ``Scheme`` is that
edge: its methods take variable-last node states and viscous fluxes, pass
them to the solver through ``components``, and give node results (residuals,
nodal rates, gradients) back variable-last. Face tuples, the end
tables, the slot weights and the pair arrays are returned in the solver's
layout."""

import numpy as np

from posdg.limiter import antidiffusive_fluxes
from posdg.rhs_high import HighOrderRHS, LDGGradient
from posdg.rhs_low import LowOrderRHS


def components(a):
    """(K, Np, nvar) node values as the solver holds them, a contiguous
    (nvar, Np, K) array; a tuple of them (the viscous fluxes) or None maps
    through."""
    if a is None or isinstance(a, np.ndarray):
        return None if a is None else np.ascontiguousarray(a.T)
    return tuple(np.ascontiguousarray(x.T) for x in a)


def variables_last(a):
    """The inverse of ``components``, as views."""
    if a is None or isinstance(a, np.ndarray):
        return None if a is None else a.T
    return tuple(x.T for x in a)


class Scheme:
    """Low- and high-order residuals, LDG gradient and dt bound of a mesh."""

    def __init__(self, mesh, gas, bcs):
        self.mesh = mesh
        self.low = LowOrderRHS(mesh, gas, bcs)
        self.high = HighOrderRHS(mesh, gas)
        self.ldg = LDGGradient(mesh, gas)

    def faces(self, u, t=0.0, sigmas=None):
        """(uf, uP, sigf, sigP, nrm), as ``Stepper.prepare`` keeps them."""
        uf, uP, nrm = self.low.face_states(components(u), t)
        return (uf, uP, *self.low.face_sigmas(components(sigmas)), nrm)

    def gradient(self, u, t=0.0):
        """(v, thetas, sigmas) of the LDG gradient, variable-last."""
        uc = components(u)
        v, thetas, sigmas = self.ldg(uc, self.low.face_states(uc, t)[1])
        return v.T, variables_last(thetas), variables_last(sigmas)

    def end_tables(self, u, t=0.0, sigmas=None):
        """(w, F, Fpair) of ``LowOrderRHS.wavespeeds``: the per-end
        wavespeeds, normal fluxes and pair-flux table that the low-order
        kernels read."""
        return self.low.wavespeeds(components(u), self.faces(u, t, sigmas),
                                   components(sigmas))

    def wavespeeds(self, u, t=0.0, sigmas=None):
        """The per-end wavespeeds w."""
        return self.end_tables(u, t, sigmas)[0]

    def rates(self, u, t=0.0, sigmas=None):
        """(lam_p, lam_s, lam) of ``LowOrderRHS.rates``."""
        return self.low.rates(self.wavespeeds(u, t, sigmas))

    def low_pairs(self, u, t=0.0, sigmas=None):
        """(P, lambda): the low-order pair fluxes and weights."""
        w, _, Fpair = self.end_tables(u, t, sigmas)
        lam_p = self.low.rates(w)[0]
        return self.low.pair_fluxes(components(u), lam_p, Fpair), lam_p

    def high_pairs(self, u, sigmas=None):
        """F^H: the high-order pair fluxes."""
        return self.high.pair_fluxes(components(u), components(sigmas))

    def _low(self, u, t, sigmas):
        """(F^L, R^L, lam), as ``Stepper.prepare`` forms them."""
        uc, sc = components(u), components(sigmas)
        faces = self.faces(u, t, sigmas)
        w, F, Fpair = self.low.wavespeeds(uc, faces, sc)
        lam_p, lam_s, lam = self.low.rates(w)
        FL = self.low.pair_fluxes(uc, lam_p, Fpair)
        return FL, self.low(uc, faces, lam_s, FL, F), lam

    def low_residual(self, u, t=0.0, sigmas=None):
        """(R, lam): the low-order residual and its nodal rates."""
        _, R, lam = self._low(u, t, sigmas)
        return R.T, lam.T

    def high_residual(self, u, t=0.0, sigmas=None):
        """R^L + scatter(F^H - F^L)."""
        FL, R, _ = self._low(u, t, sigmas)
        FH = self.high.pair_fluxes(components(u), components(sigmas))
        return (R + self.mesh.scatter @ antidiffusive_fluxes(self.mesh, FH,
                                                             FL)).T

    def max_dt(self, u, t=0.0, sigmas=None):
        """The positivity bound min_i m_i / (2 lambda_i)."""
        lam = self.rates(u, t, sigmas)[2]
        return float((self.mesh.node_mass / (2.0 * lam)).min())
