"""High-order entropy-stable flux-differencing residual.

The volume term contracts the skew part of the physical operators with the
matrix of pairwise entropy-conservative fluxes,

    R_i = - sum_k sum_j (Q_k - Q_k^T)_ij [ f_kS(u_i, u_j) - (s_ki + s_kj)/2 ]
          - surface terms.

The summand is antisymmetric in (i, j), so it is evaluated once per pair of
the mesh's pair graph (see :mod:`posdg.mesh`) as the pair flux

    F^H_ij = - sum_k (Q_k - Q_k^T)_ij [ f_kS(u_i, u_j) - (s_ki + s_kj)/2 ]

and scattered. F^H is one (nvar, npairs, K) array over the whole mesh,
computed from the node states transposed to (nvar, Np, K), with the pair
weights (Q_k - Q_k^T)_ij of each element's geometry class; its scatter is
one matrix product. The surface term is an entropy-stable local
Lax-Friedrichs flux built on the same two-point flux. :class:`HighOrderRHS` is the
unlimited scheme (mode ``none``). The limited modes never form its
residual: their high-order update uses the low-order interface flux, so it
differs from the low-order one only by the scattered pair differences
F^H_ij - F^L_ij, and the limiters take those (see :mod:`posdg.limiter`).
The pair-end gathers and the flux temporaries are taken from a
:class:`~posdg.workspace.Workspace`, and F^H is written into its kept
array, so a Stepper's stages allocate no pair-sized memory.

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

    def pair_fluxes(self, uT, sigmas=None, ws=None):
        """High-order pair fluxes F^H_ij, one (nvar, npairs, K) array.

        ``uT`` are the node states and ``sigmas`` the viscous fluxes per
        direction (None for an inviscid gas), component first: (nvar, Np,
        K). The two-point fluxes are symmetric and the operators skew, so
        one evaluation per pair of the graph suffices; on tensor-product
        elements those are the small fraction of pairs sharing a coordinate
        line. The gathers and the flux temporaries come from a frame of the
        workspace ``ws`` (a fresh one by default); F^H is its kept array,
        overwritten at every call.
        """
        ws = Workspace() if ws is None else ws
        mesh = self.mesh
        pi, pj = mesh.pair_i, mesh.pair_j
        FH = ws.keep("FH", (uT.shape[0], len(pi), uT.shape[-1]))
        FH.fill(0.0)
        with ws.frame():
            prims = ec_prims(uT, self.gas)
            F = ec_fluxes_prims(tuple(ws.gather(a, pi) for a in prims),
                                tuple(ws.gather(a, pj) for a in prims),
                                self.gas, ws=ws)
            for d, fd in enumerate(F):
                if sigmas is not None:
                    with ws.frame():
                        vis = ws.gather(sigmas[d], pi)
                        vis += ws.gather(sigmas[d], pj)
                        vis *= 0.5
                        fd -= vis
                fd *= mesh.pair_s[d]
                FH -= fd
        return FH

    def __call__(self, uT, faces, sigmas, ws=None):
        """R = M du/dt, shape (K, Np, nvar).

        ``uT`` and ``sigmas`` as for :meth:`pair_fluxes`: the node states
        and the viscous fluxes (None for an inviscid gas), component first;
        ``faces`` is (uf, uP, sigf, sigP, nrm), as for
        :meth:`posdg.rhs_low.LowOrderRHS.__call__`; ``ws`` the workspace of
        :meth:`pair_fluxes`, which also holds the scatter.
        """
        mesh = self.mesh
        gas = self.gas
        ws = Workspace() if ws is None else ws
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
        nvar, _, K = uT.shape
        R = mesh.ops.E.T @ Rs.reshape(K, -1, nvar)
        FH = self.pair_fluxes(uT, sigmas, ws)
        with ws.frame():
            R += np.matmul(mesh.scatter, FH, out=ws.take(uT.shape)).T
        return R
