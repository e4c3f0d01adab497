"""The residual operators of one state, called as ``Stepper.prepare`` calls
them: one face pass (``LowOrderRHS.face_states``) feeds the LDG gradient
and the low-order stage, one call of ``LowOrderRHS`` runs that stage and
returns the residual, the nodal rates and the low-order pair fluxes F^L,
and one call of ``HighOrderRHS`` returns the pair differences
dF = F^H - F^L. The high-order residual is the low-order one plus the
scatter of dF: the update of mode ``none``, and the end of every limiter's
blend. For the tests of the stage's pieces, ``Scheme`` also calls them one
by one, in the order ``LowOrderRHS.__call__`` calls them: the pass over
the ends that forms the wavespeeds and the normal fluxes (f - sigma) . e,
boundary ghosts included (``.wavespeeds``), the rates they feed
(``.rates``) and the low-order pair fluxes (``.pair_fluxes``). The slots'
viscous traces and exterior values, which the solver no longer forms, and
the normal fluxes of both sides of every slot are built here as oracles
(``Scheme.faces``, ``Scheme.face_fluxes``).

The solver holds node values component first, (nvar, Np, K), and face
values as (nvar, Nfp * K); the tests build their states with the variable
index last, (K, Np, nvar), as ``advance`` takes them. ``Scheme`` is that
edge: its methods take variable-last node states and viscous fluxes, pass
them to the solver through ``components``, and give node results (residuals,
nodal rates, gradients) back variable-last. Face tuples, the end
tables, the slot weights and the pair arrays are returned in the solver's
layout."""

import numpy as np

from posdg.physics import normal_flux
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
        """(uf, uP, sigf, sigP, nrm): the face states, the viscous face
        fluxes and the slots' normals. The solver forms no viscous face
        values, so they are built here, slot-major as the face states: the
        traces at the slots' volume nodes, the partner's trace at an
        interior slot and the boundary condition's exterior value at a
        boundary slot."""
        mesh = self.mesh
        uf, uP = self.low.face_states(components(u), t)
        if sigmas is None:
            return uf, uP, None, None, mesh.slot_normal
        sigf = tuple(s[:, mesh.ops.face_vol].reshape(len(s), -1)
                     for s in components(sigmas))
        sigP = tuple(s[:, mesh.slot_exterior] for s in sigf)
        tags = mesh.ftag.T.reshape(-1)
        b = tags > 0
        for sp, x in zip(sigP, self.low.bcs.exterior_sigma(
                tuple(s[:, b] for s in sigf), tags[b])):
            sp[:, b] = x
        return uf, uP, sigf, sigP, mesh.slot_normal

    def face_fluxes(self, u, t=0.0, sigmas=None):
        """(FM, FP): the normal fluxes (f - sigma) . n of the traces and of
        the exterior states along the slots' normals, formed on ``faces``,
        as ``interface_flux_low`` takes them. sigma . n is summed over the
        directions before it is subtracted, as in the solver's end table."""
        uf, uP, sigf, sigP, nrm = self.faces(u, t, sigmas)
        out = []
        for us, ss in ((uf, sigf), (uP, sigP)):
            f = normal_flux(us, nrm, self.low.gas)
            if ss is not None:
                f -= sum(nrm[d] * ss[d] for d in range(len(nrm)))
            out.append(f)
        return tuple(out)

    def gradient(self, u, t=0.0):
        """(v, thetas, sigmas) of the LDG gradient, variable-last."""
        uc = components(u)
        v, thetas, sigmas = self.ldg(uc, self.low.face_states(uc, t)[1])
        return v.T, variables_last(thetas), variables_last(sigmas)

    def end_tables(self, u, t=0.0, sigmas=None):
        """(w, F, Fpair): the per-end wavespeeds and normal fluxes of
        ``LowOrderRHS.wavespeeds``, and the view of F's node ends, (nvar,
        ends, K), that the pair fluxes read."""
        uc = components(u)
        w, F = self.low.wavespeeds(uc, self.low.face_states(uc, t)[1],
                                   components(sigmas))
        return w, F, F[:, :self.low._n_ends].reshape(len(F), self.low._ne,
                                                      -1)

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
        """(R^L, lam, F^L) of ``LowOrderRHS.__call__``."""
        uc = components(u)
        uf, uP = self.low.face_states(uc, t)
        return self.low(uc, uf, uP, components(sigmas))

    def low_residual(self, u, t=0.0, sigmas=None):
        """(R, lam): the low-order residual and its nodal rates."""
        R, lam, _ = self._low(u, t, sigmas)
        return R.T, lam.T

    def pair_differences(self, u, t=0.0, sigmas=None):
        """dF = F^H - F^L of ``HighOrderRHS.__call__``."""
        FL = self._low(u, t, sigmas)[2]
        return self.high(components(u), components(sigmas), FL)

    def high_residual(self, u, t=0.0, sigmas=None):
        """R^L + scatter(F^H - F^L)."""
        R, _, FL = self._low(u, t, sigmas)
        dF = self.high(components(u), components(sigmas), FL)
        return (R + self.mesh.scatter @ dF).T

    def max_dt(self, u, t=0.0, sigmas=None):
        """The positivity bound min_i m_i / (2 lambda_i)."""
        lam = self.rates(u, t, sigmas)[2]
        return float((self.mesh.node_mass / (2.0 * lam)).min())
