"""Sparse low-order positivity-preserving residual.

The scheme is a graph-viscosity finite-volume method on the sparse
operators QL_k: central two-point fluxes on the node graph plus a
pairwise dissipation

    lambda_ij = max(beta_i, beta_j, lambda_Davis) * |n_ij|,
    n_ij = ((QL_x - QL_x^T)_ij, (QL_y - QL_y^T)_ij) / 2,

with beta the viscous wavespeed bound that keeps the associated bar states
admissible. The pairs are the low-order subset of the geometry class's
pair graph (see :mod:`posdg.mesh`). Interfaces use the same construction
with the boundary weights in place of n_ij. The face states are gathered,
and the boundary conditions evaluated, once per stage by
:meth:`LowOrderRHS.face_states`; the LDG gradient, both interface fluxes
and the wavespeed bound all read that one set. The residual returned is
R = M du/dt, and the forward Euler update u + dt R / m is a convex
combination of the current state and bar states whenever
dt <= min_i m_i / (2 lambda_i), which is the basis of the positivity
guarantee. The pair fluxes and wavespeeds are written into the kept arrays
of a :class:`~posdg.workspace.Workspace`, and the pair-end gathers are
taken from it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bc import BCSet
from .mesh import Mesh
from .physics import (
    GasParams,
    davis_wavespeed,
    euler_flux,
    zhang_beta,
)
from .workspace import Workspace

__all__ = ["LowOrderRHS", "interface_flux_low"]


def _norm1(n):
    """|n|_1 over the last axis, summed component by component."""
    out = np.abs(n[..., 0])
    for d in range(1, n.shape[-1]):
        out = out + np.abs(n[..., d])
    return out


def _lam_hat(uM, uP, sigM, sigP, n, gas: GasParams):
    """Graph-viscosity rate max(beta_M, beta_P, Davis) for a unit ``n``."""
    lam = np.maximum(zhang_beta(uM, sigM, n, gas), zhang_beta(uP, sigP, n, gas))
    return np.maximum(lam, davis_wavespeed(uM, uP, n, gas))


def _face_lam(uM, uP, sigM, sigP, normals, wsJ, gas: GasParams):
    """Interface wavespeed weight lambda_s = wsJ |n|_1 lam_hat / 2 per slot."""
    n1 = _norm1(normals)
    return 0.5 * wsJ * n1 * _lam_hat(uM, uP, sigM, sigP, normals, gas)


def interface_flux_low(uM, uP, sigM, sigP, normals, wsJ, gas: GasParams):
    """Low-order interface contribution per face slot.

    Returns (R_slot, lam_slot): the residual contribution to the owning
    volume node and the wavespeed weight lambda_s entering the CFL bound.
    The limited modes give the high-order update this interface flux too,
    so it cancels from r^H - r^L.
    """
    dim = uM.shape[-1] - 2
    fM = euler_flux(uM, gas)
    fP = euler_flux(uP, gas)
    central = np.zeros_like(uM)
    for d in range(dim):
        df = fM[d] + fP[d]
        if sigM is not None:
            df = df - sigM[d] - sigP[d]
        central += 0.5 * normals[..., d, None] * df

    lam_slot = _face_lam(uM, uP, sigM, sigP, normals, wsJ, gas)
    R = -wsJ[..., None] * central + lam_slot[..., None] * (uP - uM)
    return R, lam_slot


class _LowPairs(NamedTuple):
    """The low-order pairs of one geometry class."""

    i: np.ndarray          # pair ends
    j: np.ndarray
    unit: np.ndarray       # n_ij / |n_ij|
    nn: np.ndarray         # |n_ij|
    S: np.ndarray          # scatter columns
    # each component of n_ij repeated over the variables, so the products
    # in pair_fluxes run over contiguous (pair, variable) blocks
    n_rep: tuple


class LowOrderRHS:
    def __init__(self, mesh: Mesh, gas: GasParams, bcs: BCSet):
        self.mesh = mesh
        self.gas = gas
        self.bcs = bcs
        bcs.validate(mesh.ftag)
        self._tags = mesh.ftag.reshape(-1)
        self._bdry = self._tags > 0

        nvar = mesh.dim + 2
        self._low = []
        for gc in mesh.classes:
            low = gc.pair_low
            n = gc.pair_n[low]
            nn = np.linalg.norm(n, axis=1)
            n_rep = tuple(np.repeat(n[:, d], nvar).reshape(-1, nvar)
                          for d in range(mesh.dim))
            self._low.append(_LowPairs(gc.pair_i[low], gc.pair_j[low],
                                       n / nn[:, None], nn,
                                       gc.scatter[:, low], n_rep))

    # -- shared face-data preparation -------------------------------------

    def face_states(self, u, t):
        """Traces, exterior states and normals at all face slots (flat).

        Returns (uf, uP, nrm). This is the only place the boundary
        conditions are evaluated: one call per stage serves the LDG
        gradient, both interface fluxes and the wavespeed bound.
        """
        mesh = self.mesh
        n = mesh.n_elements * mesh.n_face_nodes
        uf = u[:, mesh.ops.face_vol, :].reshape(n, -1)
        nrm = mesh.fnormal.reshape(n, -1)
        uP = mesh.gather_exterior(uf)
        bdry = self._bdry
        if np.any(bdry):
            uP[bdry] = self.bcs.exterior_state(
                uf[bdry], mesh.fxy.reshape(n, -1)[bdry], nrm[bdry],
                self._tags[bdry], t, self.gas)
        return uf, uP, nrm

    def face_sigmas(self, sigmas):
        """Traces and exterior values of the viscous fluxes: (sigf, sigP).

        Both are None for an inviscid gas (``sigmas`` None).
        """
        if sigmas is None:
            return None, None
        mesh = self.mesh
        n = mesh.n_elements * mesh.n_face_nodes
        sigf = tuple(s[:, mesh.ops.face_vol, :].reshape(n, -1) for s in sigmas)
        sigP = tuple(mesh.gather_exterior(s) for s in sigf)
        bdry = self._bdry
        if np.any(bdry):
            sb = self.bcs.exterior_sigma(tuple(s[bdry] for s in sigf),
                                         self._tags[bdry])
            for d in range(len(sigP)):
                sigP[d][bdry] = sb[d]
        return sigf, sigP

    # -- pairwise contributions ---------------------------------------------

    def pair_fluxes(self, u, sigmas=None, ws=None):
        """Low-order pair fluxes and wavespeeds, one (P, lambda) per class.

        P_ij (shape (K_c, npairs_low, nvar)) goes +P to node i and -P to
        node j; lambda_ij (shape (K_c, npairs_low)) is the pair's weight in
        the CFL bound. The pairs are the class's ``pair_low`` subset. The
        gathers come from the workspace ``ws`` (a fresh one by default), one
        frame per class, and P and lambda are its kept arrays of the class.
        """
        ws = Workspace() if ws is None else ws
        gas = self.gas
        dim = self.mesh.dim
        nvar = u.shape[-1]
        f = euler_flux(u, gas)
        if sigmas is not None:
            f = tuple(f[d] - sigmas[d] for d in range(dim))
        out = []
        for c, (elems, low) in enumerate(zip(self.mesh.class_elems,
                                             self._low)):
            pi, pj = low.i, low.j
            shape = (len(elems), len(pi))
            P = ws.keep(("FL", c), shape + (nvar,))
            lam = ws.keep(("lamL", c), shape)
            with ws.frame():
                _, ui, uj = self._pair_lam(u, sigmas, elems, low, ws, lam)
                # -sum_d n_d (f_d,i + f_d,j) + lambda (u_j - u_i)
                P.fill(0.0)
                fij, fj = ws.take(P.shape), ws.take(P.shape)
                for d in range(dim):
                    fd = f[d][elems]
                    np.take(fd, pi, axis=1, out=fij, mode="clip")
                    fij += np.take(fd, pj, axis=1, out=fj, mode="clip")
                    fij *= low.n_rep[d]
                    P += fij
                np.negative(P, out=P)
                diff = np.subtract(uj, ui, out=fij)
                for v in range(nvar):
                    diff[..., v] *= lam
                P += diff
            out.append((P, lam))
        return out

    def _pair_lam(self, u, sigmas, elems, low, ws=None, out=None):
        """Weights lambda_ij = lam_hat |n_ij| of one class's low-order pairs.

        Returns (lambda, u_i, u_j), so :meth:`pair_fluxes` reuses the
        gathers, which come from the caller's frame of ``ws``; lambda is
        written to ``out`` when given.
        """
        ws = Workspace() if ws is None else ws
        uc = u[elems]
        ui, uj = ws.gather(uc, low.i), ws.gather(uc, low.j)
        si = sj = None
        if sigmas is not None:
            sc = [s[elems] for s in sigmas]
            si = tuple(ws.gather(s, low.i) for s in sc)
            sj = tuple(ws.gather(s, low.j) for s in sc)
        lam = np.multiply(_lam_hat(ui, uj, si, sj, low.unit, self.gas),
                          low.nn, out=out)
        return lam, ui, uj

    def _nodal_lam(self, lam_s, lam_pairs):
        """Nodal wavespeed sums lambda_i from the face and pair weights."""
        mesh = self.mesh
        lam = lam_s.reshape(mesh.n_elements, -1) @ mesh.ops.E
        for elems, lam_p, low in zip(mesh.class_elems, lam_pairs, self._low):
            lam[elems] += lam_p @ np.abs(low.S).T
        return lam

    # -- residual ----------------------------------------------------------

    def __call__(self, u, faces, pairs):
        """R = M du/dt and the nodal wavespeed sums lambda_i.

        ``faces`` is (uf, uP, sigf, sigP, nrm), from :meth:`face_states` and
        :meth:`face_sigmas`; ``pairs`` is :meth:`pair_fluxes` of ``u``.
        """
        mesh = self.mesh
        K, _, nvar = u.shape
        Rs, lam_s = interface_flux_low(*faces, mesh.fwsJ.reshape(-1), self.gas)
        R = mesh.ops.E.T @ Rs.reshape(K, -1, nvar)
        for elems, (P, _), low in zip(mesh.class_elems, pairs, self._low):
            R[elems] += low.S @ P
        return R, self._nodal_lam(lam_s, [lam_p for _, lam_p in pairs])

    def max_dt(self, u, faces, sigmas):
        """Largest forward-Euler step with the convex bar-state guarantee.

        Evaluates only the face and pair wavespeeds, no fluxes; ``faces`` as
        for :meth:`__call__`.
        """
        lam_s = _face_lam(*faces, self.mesh.fwsJ.reshape(-1), self.gas)
        lam_pairs = [self._pair_lam(u, sigmas, elems, low)[0]
                     for elems, low in zip(self.mesh.class_elems, self._low)]
        lam = self._nodal_lam(lam_s, lam_pairs)
        return float((self.mesh.mass / (2.0 * lam)).min())
