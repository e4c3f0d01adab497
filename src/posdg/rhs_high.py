"""High-order entropy-stable flux-differencing residual.

The volume term contracts the skew part of the physical operators with the
matrix of pairwise entropy-conservative fluxes,

    R_i = - sum_k sum_j (Q_k - Q_k^T)_ij [ f_kS(u_i, u_j) - (s_ki + s_kj)/2 ]
          - surface terms.

The summand is antisymmetric in (i, j), so it is evaluated once per pair of
the geometry class's pair graph (see :mod:`posdg.mesh`) as the pair flux

    F^H_ij = - sum_k (Q_k - Q_k^T)_ij [ f_kS(u_i, u_j) - (s_ki + s_kj)/2 ]

and scattered. The surface term is an entropy-stable local Lax-Friedrichs
flux built on the same two-point flux. :class:`HighOrderRHS` is the
unlimited scheme (mode ``none``). The limited modes never form its
residual: their high-order update uses the low-order interface flux, so it
differs from the low-order one only by the scattered pair differences
F^H_ij - F^L_ij, and the limiters take those (see :mod:`posdg.limiter`).
The pair-end gathers and the flux temporaries are taken from a
:class:`~posdg.workspace.Workspace`, and F^H is written into its kept
arrays, so a Stepper's stages allocate no pair-sized memory.

Viscous terms follow the LDG construction: nodal gradients of the entropy
variables with central interface averages, the symmetric viscous fluxes
sigma = K(v) grad v evaluated matrix-free, and a central flux for the
divergence. :class:`LDGGradient` produces (v, theta, sigma); the resulting
sigma feeds both this residual and the low-order one. Neither class sees
the boundary conditions: both read the stage's face states, evaluated once
per stage by :meth:`posdg.rhs_low.LowOrderRHS.face_states`.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh
from .physics import (
    GasParams,
    davis_wavespeed,
    ec_fluxes,
    ec_fluxes_prims,
    ec_prims,
    entropy_vars,
    viscous_sigma,
)
from .rhs_low import _norm1
from .workspace import Workspace

__all__ = ["HighOrderRHS", "LDGGradient"]


class LDGGradient:
    """Entropy-variable gradients and viscous fluxes.

    Theta_k = M^{-1} [ (Q_k - Q_k^T)/2 v + (1/2) E^T B_k v_ext ], the weak
    gradient with central interface averages. The exterior v is
    entropy_vars(uP) of the stage's exterior face states, so the boundary
    conditions are evaluated once per stage, in
    :meth:`posdg.rhs_low.LowOrderRHS.face_states`. Returns (v, thetas,
    sigmas) at all volume nodes.
    """

    def __init__(self, mesh: Mesh, gas: GasParams):
        self.mesh = mesh
        self.gas = gas
        self._skews = [tuple(0.5 * (Q - Q.T) for Q in gc.Qx)
                       for gc in mesh.classes]

    def __call__(self, u, uP):
        mesh = self.mesh
        v = entropy_vars(u, self.gas)
        vP = entropy_vars(uP, self.gas).reshape(u.shape[0],
                                                mesh.n_face_nodes, -1)

        thetas = []
        for d in range(mesh.dim):
            th = np.zeros_like(u)
            for elems, skews in zip(mesh.class_elems, self._skews):
                th[elems] = skews[d] @ v[elems]
            face = 0.5 * (mesh.fwsJ * mesh.fnormal[..., d])[..., None] * vP
            th += mesh.ops.E.T @ face
            th /= mesh.mass[..., None]
            thetas.append(th)
        sigmas = viscous_sigma(v, tuple(thetas), self.gas)
        return v, tuple(thetas), sigmas


class HighOrderRHS:
    def __init__(self, mesh: Mesh, gas: GasParams,
                 lf_dissipation: bool = True):
        self.mesh = mesh
        self.gas = gas
        self.lf_dissipation = lf_dissipation
        # per class and direction: the pair weights of (Q_k - Q_k^T)_ij,
        # repeated over the variables so the products in pair_fluxes run
        # over contiguous (pair, variable) blocks
        nvar = mesh.dim + 2
        self._s = [tuple(np.repeat(s, nvar).reshape(-1, nvar)
                         for s in gc.pair_s) for gc in mesh.classes]

    def pair_fluxes(self, u, sigmas=None, ws=None):
        """High-order pair fluxes F^H_ij, one (K_c, npairs, nvar) per class.

        The two-point fluxes are symmetric and the operators skew, so one
        evaluation per pair of the class's graph suffices; on tensor-product
        elements those are the small fraction of pairs sharing a coordinate
        line. The gathers and the flux temporaries come from the workspace
        ``ws`` (a fresh one by default), one frame per class; each F^H is
        the workspace's kept array of its class, overwritten at every call.
        """
        ws = Workspace() if ws is None else ws
        gas = self.gas
        out = []
        for c, (elems, gc, s_rep) in enumerate(
                zip(self.mesh.class_elems, self.mesh.classes, self._s)):
            pi, pj = gc.pair_i, gc.pair_j
            FH = ws.keep(("FH", c), (len(elems), len(pi), u.shape[-1]))
            FH.fill(0.0)
            with ws.frame():
                prims = ec_prims(u[elems], gas)
                F = ec_fluxes_prims(tuple(ws.gather(a, pi) for a in prims),
                                    tuple(ws.gather(a, pj) for a in prims),
                                    gas, ws=ws)
                for d, fd in enumerate(F):
                    if sigmas is not None:
                        with ws.frame():
                            sd = sigmas[d][elems]
                            vis = ws.gather(sd, pi)
                            vis += ws.gather(sd, pj)
                            vis *= 0.5
                            fd -= vis
                    np.multiply(s_rep[d], fd, out=fd)
                    FH -= fd
            out.append(FH)
        return out

    def __call__(self, u, faces, sigmas, ws=None):
        """R = M du/dt.

        ``faces`` is (uf, uP, sigf, sigP, nrm), as for
        :meth:`posdg.rhs_low.LowOrderRHS.__call__`; ``sigmas`` the viscous
        fluxes at the volume nodes (None for an inviscid gas); ``ws`` the
        workspace of :meth:`pair_fluxes`.
        """
        mesh = self.mesh
        gas = self.gas
        uf, uP, sigf, sigP, nrm = faces
        wsj = mesh.fwsJ.reshape(-1)
        fS = ec_fluxes(uf, uP, gas)
        flux_n = np.zeros_like(uf)
        for d, fd in enumerate(fS):
            if sigf is not None:
                fd = fd - 0.5 * (sigf[d] + sigP[d])
            flux_n += nrm[..., d, None] * fd
        Rs = -wsj[..., None] * flux_n
        if self.lf_dissipation:
            lam = davis_wavespeed(uf, uP, nrm, gas)
            Rs += (0.5 * wsj * _norm1(nrm) * lam)[..., None] * (uP - uf)
        K, _, nvar = u.shape
        R = mesh.ops.E.T @ Rs.reshape(K, -1, nvar)
        for elems, gc, FH in zip(mesh.class_elems, mesh.classes,
                                 self.pair_fluxes(u, sigmas, ws)):
            R[elems] += gc.scatter @ FH
        return R
