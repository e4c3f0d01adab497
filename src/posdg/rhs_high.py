"""High-order entropy-stable flux-differencing volume term.

The volume term contracts the skew part of the physical operators with the
matrix of pairwise entropy-conservative fluxes,

    R_i = - sum_k sum_j (Q_k - Q_k^T)_ij [ f_kS(u_i, u_j) - (s_ki + s_kj)/2 ]
          - surface terms.

The summand is antisymmetric in (i, j), so it is evaluated once per pair of
the mesh's pair graph (see :mod:`posdg.mesh`) as the pair flux

    F^H_ij = sum_k n_k [ f_kS(u_i, u_j) - (s_ki + s_kj)/2 ],
    n_k = -(Q_k - Q_k^T)_ij,

and scattered: one two-point flux per pair, along n
(:func:`~posdg.physics.ec_fluxes_prims`). F^H is one (nvar, npairs, K)
array over the whole mesh, from the node states (nvar, Np, K) and the
pair weights of each element's geometry class; its scatter is one matrix
product. The surface terms are the low-order interface flux: central
normal fluxes plus a Lax-Friedrichs-type jump at a rate of at least the
local wavespeed, which is entropy stable. So the high-order update differs
from the low-order one only by the scattered pair differences
F^H_ij - F^L_ij, which :class:`HighOrderRHS` returns: no high-order
residual is formed. The low-order pairs lead the mesh's pair graph, so
F^L covers its first ``n_low`` pairs and the differences are formed in
place on that leading slice. The limiters blend those differences, and
mode ``none`` adds them in full (see :mod:`posdg.limiter` and
:class:`posdg.timestepping.Stepper`). The pair-end gathers and the flux
temporaries are taken from a :class:`~posdg.workspace.Workspace`, and F^H
is written into its kept array, so a Stepper's stages allocate no
pair-sized memory.

Viscous terms follow the LDG construction: nodal gradients of the entropy
variables with central interface averages, the symmetric viscous fluxes
sigma = K(v) grad v evaluated matrix-free, and a central flux for the
divergence. :class:`LDGGradient` produces (v, theta, sigma); the resulting
sigma feeds both pair fluxes and the interface flux, which read its
momentum and energy rows only, as its mass row is zero. The exterior
entropy variables of the gradient's interface average are taken from v at
the partner's volume node at interior slots; only the boundary slots'
exterior states are converted. Neither class sees the boundary
conditions: both read the stage's face states, evaluated once per stage by
:meth:`posdg.rhs_low.LowOrderRHS.face_states`.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh
from .physics import (
    GasParams,
    ec_fluxes_prims,
    ec_prims,
    entropy_vars_cf,
    viscous_sigma,
)

__all__ = ["HighOrderRHS", "LDGGradient"]


class LDGGradient:
    """Entropy-variable gradients and viscous fluxes.

    Theta_m = M^{-1} [ (Q_m - Q_m^T)/2 v + (1/2) E^T B_m v_ext ], the weak
    gradient with central interface averages. The physical operator of an
    element is Q_m = sum_k G_mk Q^r_k with G its class's cofactor matrix,
    so the volume term is one product (Q^r_k - Q^r_k^T)/2 v per reference
    direction over the whole mesh, scaled by the per-element factors
    G_mk. The exterior v is entropy_vars(uP) of the stage's exterior face
    states, so the boundary states are evaluated once per stage, in
    :meth:`posdg.rhs_low.LowOrderRHS.face_states`. Only the boundary
    slots need entropy_vars of it: an interior slot's exterior state is
    its partner's trace, so its exterior v is one take of v at the
    partner's volume node, bit for bit the same values. Returns (v,
    thetas, sigmas) at all volume nodes: v (nvar, Np, K), thetas and
    sigmas one (nvar, Np, K) array per direction, the rows of one (dim,
    nvar, Np, K) array each, so that :func:`~posdg.physics.viscous_sigma`
    broadcasts over the direction axis.
    """

    def __init__(self, mesh: Mesh, gas: GasParams):
        self.mesh = mesh
        self.gas = gas
        dim = mesh.dim
        K = mesh.n_elements
        # the exterior volume node of each slot, a flat (node, element)
        # index: the partner's, or the slot's own at a boundary slot, whose
        # exterior v is converted from uP instead
        ext = mesh.slot_exterior
        self._ext_src = K * mesh.ops.face_vol[ext // K] + ext % K
        self._bdry_slots = np.nonzero(mesh.slot_tag > 0)[0]
        self._skews = [0.5 * (Q - Q.T) for Q in mesh.ops.Q]
        G = np.stack([gc.G for gc in mesh.classes])[mesh.class_id]
        # per physical direction, the reference directions with a nonzero
        # factor in some element, and the factors per element
        self._metric = [[(k, np.ascontiguousarray(G[:, m, k]))
                         for k in range(dim) if np.any(G[:, m, k])]
                        for m in range(dim)]
        self._lift = (0.5 * mesh.slot_wsJ * mesh.slot_normal).reshape(
            dim, mesh.n_face_nodes, -1)

    def __call__(self, u, rhoe, p, uP, ws):
        """(v, thetas, sigmas), kept arrays of the workspace ``ws``, valid
        until its next call; the volume and lift products are formed in a
        frame of it.

        ``rhoe`` and ``p`` are the internal energy and the pressure of
        ``u`` (Np, K), which v reads. ``uP`` must be the exterior face
        states of ``u``, as
        :meth:`posdg.rhs_low.LowOrderRHS.face_states` forms them: only its
        boundary slots are read, and every interior slot takes v at its
        partner's volume node.
        """
        ET = self.mesh.ops.E.T
        v = entropy_vars_cf(u, self.gas, out=ws.keep("v", u.shape), rhoe=rhoe,
                            p=p)
        thetas, sigmas = (ws.keep(key, (len(self._lift),) + u.shape)
                          for key in ("theta", "sigma"))
        with ws.frame():
            vP = v.reshape(len(v), -1).take(self._ext_src, axis=1,
                                            out=ws.take(uP.shape), mode="clip")
            if len(self._bdry_slots):
                vP[:, self._bdry_slots] = entropy_vars_cf(
                    uP[:, self._bdry_slots], self.gas)
            vP = vP.reshape(len(u), *self._lift.shape[1:])
            Sv = [np.matmul(S, v, out=ws.take(u.shape)) for S in self._skews]
            t, gSv = ws.take(vP.shape), ws.take(u.shape)
            for th, lift, metric in zip(thetas, self._lift, self._metric):
                np.matmul(ET, np.multiply(lift, vP, out=t), out=th)
                for k, g in metric:
                    th += np.multiply(g, Sv[k], out=gSv)
                th /= self.mesh.node_mass
        return v, tuple(thetas), viscous_sigma(v, thetas, self.gas, out=sigmas)


class HighOrderRHS:
    """The high-order volume pair fluxes F^H of a mesh."""

    def __init__(self, mesh: Mesh, gas: GasParams):
        self.mesh = mesh
        self.gas = gas
        # the pair weights n_k = -(Q_k - Q_k^T)_ij of each element's class,
        # (dim, npairs, K): the mesh's one per-element copy of them
        n = np.stack([gc.pair_s for gc in mesh.classes], axis=-1).take(
            mesh.class_id, axis=-1)
        self._n = np.negative(n, out=n)
        # the viscous term's weights n_k / 2, formed for a viscous gas only
        self._half_n = 0.5 * self._n if gas.viscous else None

    def pair_fluxes(self, u, p, sigmas=None, *, ws):
        """High-order pair fluxes F^H_ij, one (nvar, npairs, K) array.

        ``u`` are the node states and ``sigmas`` the viscous fluxes per
        direction (None for an inviscid gas), (nvar, Np, K), and ``p`` the
        pressure of ``u`` (Np, K), which the node table of
        :func:`~posdg.physics.ec_prims`, a kept array of the workspace
        ``ws``, reads. The two-point
        fluxes are symmetric and the operators skew, so one evaluation per
        pair of the graph, along the pair's direction n, suffices; on
        tensor-product elements those are the small fraction of pairs
        sharing a coordinate line. The gathers and the flux temporaries
        come from a frame of the workspace ``ws``; F^H is its kept array,
        overwritten at every call.
        """
        pi, pj = self.mesh.pair_i, self.mesh.pair_j
        FH = ws.keep("FH", (len(u), len(pi), u.shape[-1]))
        tab = ec_prims(u, self.gas, p,
                       ws.keep("prims", (len(u) + 1,) + u.shape[1:]))
        with ws.frame():
            ec_fluxes_prims(ws.gather(tab, pi), ws.gather(tab, pj), self._n,
                            self.gas, ws=ws, out=FH)
            if sigmas is not None:
                # minus sum_k (n_k / 2) (s_ki + s_kj), on the momentum and
                # energy rows: the mass row of sigma is zero
                shape = (len(FH) - 1,) + FH.shape[1:]
                vis, t = ws.take(shape), ws.take(shape)
                for s, half_n in zip(sigmas, self._half_n):
                    s[1:].take(pi, axis=1, out=vis, mode="clip")
                    vis += s[1:].take(pj, axis=1, out=t, mode="clip")
                    vis *= half_n
                    FH[1:] -= vis
        return FH

    def __call__(self, u, p, sigmas, FL, ws):
        """dF = F^H - F^L, formed in the array of :meth:`pair_fluxes`; ``FL``
        are the low-order pair fluxes (:class:`posdg.rhs_low.LowOrderRHS`)
        on the graph's leading ``n_low`` pairs."""
        dF = self.pair_fluxes(u, p, sigmas, ws=ws)
        dF[:, :self.mesh.n_low] -= FL
        return dF
