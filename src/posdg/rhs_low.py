"""Sparse low-order positivity-preserving residual.

The scheme is a graph-viscosity finite-volume method on the sparse
operators QL_k: central two-point fluxes on the node graph plus a
pairwise dissipation

    lambda_ij = max(beta_i, beta_j, lambda_Davis) * |n_ij|,
    n_ij = ((QL_x - QL_x^T)_ij, (QL_y - QL_y^T)_ij) / 2,

with beta the viscous wavespeed bound that keeps the associated bar states
admissible (:func:`posdg.physics.zhang_beta`). The pairs are the
low-order pairs of the mesh's pair graph, which lead it (see
:mod:`posdg.mesh`): its first ``n_low`` pairs, taken as a leading slice of
the pair ends, the scatter and the weights n_ij. The pair fluxes and
weights are (nvar, npairs_low, K) and (npairs_low, K) arrays over the
whole mesh, with n_ij taken per element from its geometry class; each of
their scatters is one matrix product. Interfaces use the same
construction with the boundary weights in place of n_ij, and the normal
flux sum_k n_k (f_k - sigma_k) of each slot. Every array is
component first: node states (nvar, Np, K), face states (nvar, Nfp * K) in
the mesh's slot-major order, whose lift E^T is one matrix product too. The
face states are gathered, and the boundary states evaluated, once per
stage by :meth:`LowOrderRHS.face_states`; the LDG gradient and the
low-order stage, one call of :class:`LowOrderRHS`, read that one set. The
boundary slots are grouped by condition once, at construction
(:meth:`~posdg.bc.BCSet.group`), so a stage selects no slot by tag. The
stage's end tables, rates and fluxes stay inside it. Its residual is
R = M du/dt, and the forward Euler update u + dt R / m is a convex
combination of the current state and bar states whenever
dt <= min_i m_i / (2 lambda_i), which is the basis of the positivity
guarantee. The weights lambda_ij and lambda_s and their nodal sums
lambda_i come from the wavespeeds alone (:meth:`LowOrderRHS.rates`),
before any flux is formed. The wavespeeds, normal fluxes and pair fluxes
are written into the kept arrays of a :class:`~posdg.workspace.Workspace`,
and the gathers and scatters are taken from it.

Wavespeeds and normal fluxes per end. The rate of a pair or face slot with
unit direction n splits into one term per end,

    max(beta_i, beta_j, lambda_Davis) = max(w_i, w_j),
    w(u, sigma, n) = max(beta(u, sigma, n), |u.n| + c),

and w is even in n bit for bit: n enters beta and the Davis term only
through products n_k x, whose sums change sign exactly when n does, and
these reach w only through |.| or a square. The normal flux F(u, sigma, n)
= sum_k n_k (f_k(u) - sigma_k) is odd in n bit for bit by the same
argument: n enters it only through m . n, p n_k and the sum of the
n_k sigma_k, and F(u, sigma, -n) = -F(u, sigma, n). An end is therefore
a node with a direction up to sign, the one whose first nonzero component
is positive. :meth:`LowOrderRHS.wavespeeds` evaluates w and F once per
stage on the distinct ends of the elements: both ends of every low-order
pair, and the volume node of every face slot with the slot's normal. An
end is distinct if it is distinct in some geometry class, and the tables
hold every end of every element, (end, element) in that order, so the
pair weights and fluxes are row takes. The normals of partner slots are
exact negations, so the exterior end of an interior slot is its partner's
own end, and only the boundary ghost states get ends of their own. Pairs
and slots then take the max of two gathered w. On quad N=3, the 48 ends of
the 24 low-order pairs are 32 distinct ends, and these cover all 16 face
slots too. The pressure p and the sound speed c depend on the state only,
so they are formed once per node and once per boundary ghost state and
gathered with the ends; only m . n and what follows from it are formed
per end, and the Davis term reads m . n from the mass row of f(u) . n,
before sigma . n is subtracted. A ghost end's sigma is the boundary
condition's exterior viscous flux (:meth:`~posdg.bc.BCSet.exterior_sigma`)
of sigma at its slot's volume node.

The two ends of a pair share its direction e, and n_ij = s |n_ij| e with
one sign s = +-1 per pair and geometry class, so the central part of the
pair flux is -s |n_ij| (F_i + F_j). A face slot reads F at its two ends.
The trace's end has the direction s_M n, s_M = +-1, with n the slot's
normal; the exterior end, the partner's, has the direction s_P n, with
s_P the partner's sign negated, as its normal is -n (s_P = +1 at a
ghost, whose direction is n). The exterior F times the relative sign
s_M s_P is the flux along the trace's direction, and the slot's weight
-wsJ s_M / 2, formed once with the relative signs, turns the sum of the
two into the central flux along n. As the signs are exact, the interface
flux equals the one of normal fluxes formed per slot bit for bit, with
sigma . n summed over the directions before it is subtracted; the pair
fluxes do where e is an axis (lines and quads), and to roundoff
elsewhere. The flux f - sigma is thus evaluated once per
end and stage, where the pair form takes both directions at every node
and the slot form both sides of every slot.

For an inviscid gas w is the Davis term alone, and beta is not evaluated.
With sigma = 0, |n| = 1, p = (gamma - 1) rho e and c^2 = gamma p / rho,

    beta - eps0 = |u.n| + p / sqrt(2 rho (rho e))
                = |u.n| + sqrt((gamma - 1) / (2 gamma)) c.

The factor is below 1/sqrt(2) for every gamma > 1, so on every admissible
state (rho > 0, rho e > 0, hence c > 0) the Davis term exceeds beta - eps0
by more than 0.29 c: it is a strictly larger rate than the bar-state bound
needs, and the positivity guarantee holds with it alone. The eps0 = 1e-14
of :func:`~posdg.physics.zhang_beta` only pads that bound, so Davis alone
equals max(beta, Davis) bit for bit unless c is below about 3.5 eps0 or
the margin is below the rounding of |u.n| (Mach numbers of about 1e14).
"""

from __future__ import annotations

import numpy as np

from .bc import BCSet
from .mesh import Mesh
from .physics import (
    GasParams,
    davis_wavespeed,
    normal_flux,
    pressure_cf,
    sound_speed,
    zhang_beta,
)

__all__ = ["LowOrderRHS", "interface_flux_low"]


def interface_flux_low(FM, FP, uM, uP, weight, lam_slot):
    """Low-order interface contribution per face slot,

        weight (FM + FP) + lambda_s (uP - uM).

    Returns the residual contribution to the owning volume node. ``FM`` and
    ``FP`` are the normal fluxes (f - sigma) . e of the trace and of the
    exterior state along one direction e = +-n per slot, n its normal,
    (nvar, Nfp * K), viscous fluxes included; the result is written into
    ``FM``. ``weight`` is -wsJ (e . n) / 2 per slot: -wsJ / 2 for fluxes
    along n, and :meth:`LowOrderRHS.__call__` passes the fluxes along the
    trace's end of the end table with the weight that holds its sign.
    ``lam_slot`` is the slot's wavespeed weight lambda_s
    (:meth:`LowOrderRHS.rates`). The limited modes give the high-order
    update this interface flux too, so it cancels from r^H - r^L.
    """
    F = FM
    F += FP
    F *= weight
    F += lam_slot * (uP - uM)
    return F


def _distinct_ends(nodes, dirs):
    """The distinct (node, +-direction) ends among ``nodes`` and ``dirs``.

    Returns (node, direction) per distinct end, the end of each input and
    the sign s of each input: its direction is s times its end's.
    Directions equal up to sign, bit for bit, make one end; its direction
    is the one whose first nonzero component is positive.
    """
    first = dirs[np.arange(len(dirs)), np.argmax(dirs != 0.0, axis=1)]
    sign = np.where(first < 0.0, -1.0, 1.0)
    canon = sign[:, None] * dirs + 0.0   # no -0.0
    table, end = np.unique(np.column_stack([nodes, canon]), axis=0,
                           return_inverse=True)
    return (table[:, 0].astype(np.int64), table[:, 1:], end.reshape(-1),
            sign)


class LowOrderRHS:
    def __init__(self, mesh: Mesh, gas: GasParams, bcs: BCSet):
        self.mesh = mesh
        self.gas = gas
        self.bcs = bcs
        K = mesh.n_elements
        # the boundary slots grouped by condition, and the rows of the
        # adiabatic ones among the boundary slots
        self._bc_groups, self._adiabatic = bcs.group(
            mesh.slot_tag, mesh.slot_xy, mesh.slot_normal)
        # the boundary slots, slot-major, and their volume nodes, flat
        # (node, element) indices
        bdry = mesh.slot_tag > 0
        self._bdry_slots = np.nonzero(bdry)[0]
        self._bdry_src = (K * mesh.ops.face_vol[self._bdry_slots // K]
                          + self._bdry_slots % K)

        # the low-order pairs, the leading npl of the pair graph
        npl = mesh.n_low
        self._pi, self._pj = mesh.pair_i[:npl], mesh.pair_j[:npl]
        # (Np, npl), column-major: so laid out, the products S @ P and
        # |S| @ lam_p add each node's pairs in pair order on OpenBLAS,
        # where a row-major copy rounds some tri nodal sums differently
        self._S = np.asfortranarray(mesh.scatter[:, :npl])
        self._absS = np.abs(self._S)     # for the nodal wavespeed sums

        # the distinct ends of each class; a mesh end is one end of every
        # class, so its direction is taken per element from its class
        nodes = np.concatenate([self._pi, self._pj, mesh.ops.face_vol])
        dirs, ends, nn, signs = [], [], [], []
        for gc in mesh.classes:
            nij = gc.pair_n[:npl]
            nn.append(np.linalg.norm(nij, axis=1))
            unit = nij / nn[-1][:, None]
            _, d, e, sg = _distinct_ends(
                nodes, np.concatenate([unit, unit, gc.normals]))
            dirs.append(d)
            ends.append(e)
            signs.append(sg)
        _, first, end = np.unique(np.stack(ends), axis=1, return_index=True,
                                  return_inverse=True)
        end = end.reshape(-1)
        self._ne = ne = len(first)
        self._nn = np.stack(nn, axis=-1)[:, mesh.class_id]
        self._ei, self._ej = end[:npl], end[npl:2 * npl]
        # the signs per input and element; both ends of a pair share its
        # direction, so a pair has one sign s, and n_ij = s |n_ij| times
        # the direction of its ends
        sign = np.stack(signs, axis=-1)[:, mesh.class_id]
        self._pair_w = -(sign[:npl] * self._nn)
        # s_M F[end] is the flux along the slot's normal n; an interior
        # slot's exterior end is its partner's, whose normal is -n, so its
        # sign s_P is the partner's negated (+1 at a ghost). The exterior
        # flux takes the relative sign s_M s_P, and the weight s_M.
        s_M = sign[2 * npl:].reshape(-1)
        self._ext_sign = s_M * np.where(bdry, 1.0, -s_M[mesh.slot_exterior])
        self._slot_w = -0.5 * mesh.slot_wsJ * s_M
        # the flat end table: (end, element) blocks, then the boundary
        # ghost states; its sources are flat (node, element) indices
        self._n_ends = top = ne * K
        self._end_src = (K * nodes[first][:, None] + np.arange(K)).reshape(-1)
        end_dir = np.stack([d[e[first]] for d, e in zip(dirs, ends)])
        self._end_dir = np.concatenate([end_dir[mesh.class_id].T.reshape(
            mesh.dim, top), mesh.slot_normal[:, bdry]], axis=1)
        self._slot_end = (K * end[2 * npl:, None] + np.arange(K)).reshape(-1)
        ghost = top + np.cumsum(bdry) - 1
        self._ext_end = np.where(bdry, ghost,
                                 self._slot_end[mesh.slot_exterior])

    # -- shared face-data preparation -------------------------------------

    def face_states(self, u, t, ws):
        """Traces and exterior states at all face slots: (uf, uP), along
        the mesh's ``slot_normal``.

        Both are component first and slot-major, (nvar, Nfp * K), kept
        arrays of the workspace ``ws``. An interior
        slot's exterior state is its partner's trace, and so is, at first,
        a boundary slot's own trace: outflow keeps it, and
        :meth:`~posdg.bc.BCSet.exterior_state` writes the states of the
        other conditions over it, at the slot groups formed at
        construction. This is the only place the boundary states are
        evaluated: one call per stage serves the LDG gradient and the
        low-order stage (:meth:`__call__`).
        """
        mesh = self.mesh
        uf = ws.keep("uf", (len(u), mesh.n_face_nodes, u.shape[-1]))
        uf = u.take(mesh.ops.face_vol, axis=1, out=uf,
                    mode="clip").reshape(len(u), -1)
        uP = uf.take(mesh.slot_exterior, axis=1, mode="clip",
                     out=ws.keep("uP", uf.shape))
        if self._bc_groups:
            self.bcs.exterior_state(uf, uP, self._bc_groups, t, self.gas)
        return uf, uP

    # -- wavespeeds ----------------------------------------------------------

    def wavespeeds(self, u, uP, sigmas=None, *, ws):
        """The per-end wavespeeds and normal fluxes of one stage, flat (see
        module doc): (w, F).

        One entry per distinct end and element, (end, element) in that
        order, then one per boundary ghost state: w = |u.n| + c for an
        inviscid gas (``sigmas`` None), else max(beta, |u.n| + c), and F
        (nvar, n_ends) the normal flux (f(u) - sigma) . n along the end's
        direction n. The ghost ends read ``uP`` (:meth:`face_states`) and
        the exterior viscous fluxes of the boundary conditions, formed here
        from ``sigmas`` at the boundary slots' volume nodes. The end states
        are gathered into a frame of the workspace ``ws``, and w and F are
        its kept arrays, valid until the next call with the same workspace.
        :meth:`rates` reads w, and :meth:`__call__` reads F at the pairs'
        and the slots' ends.
        """
        gas = self.gas
        top, ghosts, dirs = self._n_ends, self._bdry_slots, self._end_dir
        shape = (len(u), dirs.shape[1])

        def gather(vol, face, idx):
            out = ws.take(shape)
            for c in range(len(vol)):
                vol[c].reshape(-1).take(self._end_src, out=out[c, :top],
                                        mode="clip")
                face[c].take(idx, out=out[c, top:], mode="clip")
            return out

        w = ws.keep("w", shape[1:])
        F = ws.keep("Fn", shape)
        with ws.frame():
            ue = gather(u, uP, ghosts)
            # p and c once per node and ghost state, gathered with the ends
            pe, ce = ws.take(shape[1:]), ws.take(shape[1:])
            with ws.frame():
                pn = pressure_cf(u, gas, ws.take(u.shape[1:]),
                                 ws.take(u.shape[1:]))
                cn = sound_speed(u, gas, ws.take(u.shape[1:]), p=pn)
                pn.reshape(-1).take(self._end_src, out=pe[:top], mode="clip")
                cn.reshape(-1).take(self._end_src, out=ce[:top], mode="clip")
                pressure_cf(ue[:, top:], gas, pe[top:], ce[top:])
                sound_speed(ue[:, top:], gas, ce[top:], p=pe[top:])
            normal_flux(ue, dirs, gas, p=pe, out=F, ws=ws)
            w[:] = davis_wavespeed(ue, dirs, gas, ws, c=ce, mn=F[0])
            if sigmas is not None:
                sb = self.bcs.exterior_sigma(
                    tuple(s.reshape(len(s), -1)[:, self._bdry_src]
                          for s in sigmas), self._adiabatic)
                rows = np.arange(len(ghosts))
                se = tuple(gather(s, x, rows) for s, x in zip(sigmas, sb))
                np.maximum(zhang_beta(ue, se, dirs, gas, ws=ws), w, out=w)
                # F - sigma . n at every end
                sn = np.multiply(dirs[0], se[0], out=ws.take(shape))
                for d in range(1, len(se)):
                    sn += np.multiply(dirs[d], se[d], out=ws.take(shape))
                F -= sn
        return w, F

    def rates(self, w, ws):
        """The low-order rates of one stage, from its wavespeeds ``w``
        (:meth:`wavespeeds`) alone: (lam_p, lam_s, lam).

        lam_p are the pair weights lambda_ij = max(w_i, w_j) |n_ij|,
        (npairs_low, K), a kept array of the workspace ``ws``; lam_s the
        face slot weights lambda_s = wsJ |n|_1 max(w_M, w_P) / 2,
        (Nfp * K,); lam the nodal sums lambda_i of both, (Np, K), in the
        positivity bound dt <= m_i / (2 lambda_i).
        """
        lam_s = self.mesh.slot_dissipation * np.maximum(w[self._slot_end],
                                                        w[self._ext_end])
        lam_p = ws.keep("lamL", self._nn.shape)
        wT = w[:self._n_ends].reshape(self._ne, -1)
        with ws.frame():
            wT.take(self._ei, axis=0, out=lam_p, mode="clip")
            np.maximum(lam_p, ws.gather(wT, self._ej), out=lam_p)
        lam_p *= self._nn
        lam = self.mesh.ops.E.T @ lam_s.reshape(self.mesh.n_face_nodes, -1)
        lam += self._absS @ lam_p
        return lam_p, lam_s, lam

    # -- pairwise contributions ---------------------------------------------

    def pair_fluxes(self, u, lam_p, Fpair, ws):
        """Low-order pair fluxes P of the mesh, (nvar, npairs_low, K).

        ``u`` are the node states (nvar, Np, K), ``lam_p`` the pair weights
        of :meth:`rates` and ``Fpair`` the node ends' normal fluxes of
        :meth:`wavespeeds`, viscous fluxes included. Both ends of a pair
        share its direction, n_ij = s |n_ij| times it, so

            P_ij = -s |n_ij| (Fpair[e_i] + Fpair[e_j])
                   + lambda_ij (u_j - u_i),

        which goes +P to node i and -P to node j. The pairs are the graph's
        leading ``n_low`` pairs. The gathers come from a frame of the
        workspace ``ws``, and P is its kept array.
        """
        nvar, _, K = u.shape
        P = ws.keep("FL", (nvar, len(self._pi), K))
        with ws.frame():
            # row takes per component: Fpair may be a view of the flux
            # table, contiguous per component only, which a take along its
            # end axis would first copy
            Fj = ws.take(P.shape)
            for c in range(nvar):
                Fpair[c].take(self._ei, axis=0, out=P[c], mode="clip")
                Fpair[c].take(self._ej, axis=0, out=Fj[c], mode="clip")
            P += Fj
            P *= self._pair_w
            diff = np.subtract(ws.gather(u, self._pj),
                               ws.gather(u, self._pi), out=ws.take(P.shape))
            diff *= lam_p
            P += diff
        return P

    # -- the stage ---------------------------------------------------------

    def __call__(self, u, uf, uP, sigmas=None, *, ws):
        """The low-order stage: (R, lam, P) of :meth:`rates` and
        :meth:`pair_fluxes`, with R = M du/dt, (nvar, Np, K).

        ``uf`` and ``uP`` are :meth:`face_states` of ``u``, and ``sigmas``
        the viscous fluxes per direction (None for an inviscid gas). The
        pairs read the node ends of the flux table of :meth:`wavespeeds`,
        a view of it. A slot's trace and exterior state are its two ends:
        :func:`interface_flux_low` reads the trace end's flux, the exterior
        end's times the relative sign, both along the trace end's
        direction, and the slot weight that holds the trace end's sign
        (module doc). R is a kept array of the workspace ``ws``, which
        also holds the end tables, the interface flux and its lift.
        """
        mesh = self.mesh
        w, F = self.wavespeeds(u, uP, sigmas, ws=ws)
        lam_p, lam_s, lam = self.rates(w, ws)
        P = self.pair_fluxes(
            u, lam_p, F[:, :self._n_ends].reshape(len(u), self._ne, -1), ws)
        R = np.matmul(self._S, P, out=ws.keep("R", u.shape))
        with ws.frame():
            shape = (len(F), len(self._slot_end))
            FM = F.take(self._slot_end, axis=1, out=ws.take(shape),
                        mode="clip")
            FX = F.take(self._ext_end, axis=1, out=ws.take(shape),
                        mode="clip")
            FX *= self._ext_sign
            Rs = interface_flux_low(FM, FX, uf, uP, self._slot_w, lam_s)
            R += np.matmul(mesh.ops.E.T,
                           Rs.reshape(len(Rs), mesh.n_face_nodes, -1),
                           out=ws.take(R.shape))
        return R, lam, P
