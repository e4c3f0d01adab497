"""Reference implementations used as independent oracles in tests."""

import numpy as np

from posdg.cases import schlieren
from posdg.cli import SCHEMA, _VTK_TYPE, _subgrid_cells
from posdg.limiter import Bounds, solve_l
from posdg.physics import (
    conserved_to_primitive,
    davis_wavespeed,
    internal_energy,
    internal_energy_cf,
    normal_flux,
    pressure_cf,
    sound_speed,
    zhang_beta,
)
from posdg.workspace import Workspace


def euler_flux(u, gas, out=None):
    """Physical inviscid fluxes f_k, one (nvar, ...) array per direction
    (written into the arrays ``out`` when given), component first; equal
    bit for bit to ``normal_flux`` along each unit vector."""
    rho, mom, E = u[0], u[1:-1], u[-1]
    p = pressure_cf(u, gas)
    out = [np.empty_like(u) for _ in mom] if out is None else out
    for k, f in enumerate(out):
        uk = mom[k] / rho
        f[0] = mom[k]
        for j in range(len(mom)):
            np.multiply(mom[j], uk, out=f[1 + j, ...])
        f[1 + k] += p
        np.multiply(E + p, uk, out=f[-1, ...])
    return tuple(out)


def bisect_l(uL, P, rho_min, rhoe_min, iters=60):
    """Largest feasible blend fraction by bisection on the state path.

    Evaluates the constraints directly from uL + l P (no closed-form
    coefficients). The energy constraint is quadratic along the path, so a
    hidden dip can only occur for an upward parabola; a golden-section
    minimization locates it before bisecting the first crossing.
    """
    uL = np.asarray(uL, dtype=float)
    P = np.asarray(P, dtype=float)

    def rho(l):
        return uL[0] + l * P[0]

    def phi(l):
        w = uL + l * P
        m = w[1:-1]
        return w[0] * w[-1] - 0.5 * float(m @ m) - rhoe_min * w[0]

    if rho(1.0) >= rho_min:
        l_rho = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if rho(mid) >= rho_min:
                lo = mid
            else:
                hi = mid
        l_rho = lo

    # golden-section minimum of phi over [0,1]
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    x1, x2 = b - inv * (b - a), a + inv * (b - a)
    f1, f2 = phi(x1), phi(x2)
    for _ in range(2 * iters):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = phi(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = phi(x2)
    lm = 0.5 * (a + b)

    if phi(1.0) >= 0.0 and phi(lm) >= 0.0:
        l_e = 1.0
    else:
        hi = 1.0 if phi(1.0) < 0.0 else lm
        lo = 0.0
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if phi(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        l_e = lo

    return min(l_rho, l_e, 1.0)


def sigma_n_ref(sigma, n):
    """The normal viscous flux sum_k n_k sigma_k of the per-direction
    fluxes ``sigma`` (one (nvar, ...) array each), summed over the
    directions in index order, as the end table sums it; None maps
    through. ``n`` is (dim, ...) and broadcasts against the components."""
    if sigma is None:
        return None
    sn = n[0] * sigma[0]
    for k in range(1, len(sigma)):
        sn = sn + n[k] * sigma[k]
    return sn


def bisect_l_rows(uL, P, rho_min, rhoe_min, iters=60):
    """:func:`bisect_l` of every row of ``uL`` and ``P`` (n, nvar), with
    per-row bounds (n,), at once: the same golden-section search and
    bisections, each row taking its own branch through ``np.where``, so
    every row runs the scalar oracle's arithmetic."""
    uL = np.asarray(uL, dtype=float)
    P = np.asarray(P, dtype=float)
    n = len(uL)

    def rho(l):
        return uL[:, 0] + l * P[:, 0]

    def phi(l):
        # |m|^2 as one dot product per row, as bisect_l's m @ m forms it
        # (BLAS may fuse its multiply-add, which a sum of squares does not)
        w = uL + l[:, None] * P
        mm = np.matmul(w[:, None, 1:-1], w[:, 1:-1, None])[:, 0, 0]
        return w[:, 0] * w[:, -1] - 0.5 * mm - rhoe_min * w[:, 0]

    def bisect(ok, hi):
        lo = np.zeros(n)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            good = ok(mid)
            lo, hi = np.where(good, mid, lo), np.where(good, hi, mid)
        return lo

    ones = np.ones(n)
    l_rho = np.where(rho(ones) >= rho_min, 1.0,
                     bisect(lambda l: rho(l) >= rho_min, ones))

    # golden-section minimum of phi over [0,1], per row
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.zeros(n), ones
    x1, x2 = b - inv * (b - a), a + inv * (b - a)
    f1, f2 = phi(x1), phi(x2)
    for _ in range(2 * iters):
        left = f1 < f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, b - inv * (b - a), a + inv * (b - a))
        f = phi(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, f, f2), np.where(left, f1, f)
    lm = 0.5 * (a + b)

    f_end, f_min = phi(ones), phi(lm)
    hi = np.where(f_end < 0.0, 1.0, lm)
    l_e = np.where((f_end >= 0.0) & (f_min >= 0.0), 1.0,
                   bisect(lambda l: phi(l) >= 0.0, hi))
    return np.minimum(np.minimum(l_rho, l_e), 1.0)


def lam_hat_ref(uM, uP, sigM, sigP, n, gas):
    """Graph-viscosity rate max(beta_M, beta_P, Davis) for a unit ``n``,
    evaluated pairwise at both ends, as the low-order scheme once did, with
    each end's beta read from its sigma . n. Component first, as the
    kernels it calls."""
    lam = np.maximum(
        zhang_beta(uM, sigma_n_ref(sigM, n), n, gas, ws=Workspace()),
        zhang_beta(uP, sigma_n_ref(sigP, n), n, gas, ws=Workspace()))
    lam = np.maximum(lam, davis_wavespeed(uM, n, gas, Workspace()))
    return np.maximum(lam, davis_wavespeed(uP, n, gas, Workspace()))


def end_src_ref(low):
    """The flat (node, element) index of every (end, element) entry of the
    end tables of ``low`` (a ``LowOrderRHS``), in their order."""
    K = low.mesh.n_elements
    return (K * low._end_rows[:, None] + np.arange(K)).reshape(-1)


def low_stage_flat_ref(low, u, uf, uP, sigmas=None):
    """(w, F, lam_p, lam_s, lam, R, P) of the low-order stage of ``low``
    (a ``LowOrderRHS``) on (nvar, Np, K) node states, as it was formed with
    flat (node, element) and (end, element) indices: every node value is
    gathered to the end tables and every end value to the face slots one
    element at a time, and every kernel derives rho e and p from the
    states it is given. ``uf`` and ``uP`` are the face states of ``u``."""
    mesh, gas = low.mesh, low.gas
    nvar, K = len(u), mesh.n_elements
    top, dirs, ghosts = low._n_ends, low._end_dir, low._bdry_slots
    src = end_src_ref(low)
    slot_end = (K * low._slot_rows[:, None] + np.arange(K)).reshape(-1)
    ws = Workspace()

    def gather(vol, face):
        return np.concatenate([vol.reshape(len(vol), -1)[:, src], face],
                              axis=1)

    ue = gather(u, uP[:, ghosts])
    pn = pressure_cf(u, gas)
    pe = gather(pn[None], pressure_cf(ue[:, top:], gas)[None])[0]
    cn = sound_speed(u, gas, p=pn)
    ce = gather(cn[None], sound_speed(ue[:, top:], gas)[None])[0]
    F = normal_flux(ue, dirs, gas, p=pe, ws=ws)
    w = davis_wavespeed(ue, dirs, gas, ws, c=ce, mn=F[0]).copy()
    if sigmas is not None:
        sb = low.bcs.exterior_sigma(
            tuple(s.reshape(len(s), -1)[1:, low._bdry_src] for s in sigmas),
            low._adiabatic)
        sn = np.zeros(ue.shape)
        for d, (s, x) in enumerate(zip(sigmas, sb)):
            se = gather(s[1:], x) * dirs[d]
            if d:
                sn[1:] += se
            else:
                sn[1:] = se
        w = np.maximum(zhang_beta(ue, sn, dirs, gas, ws=ws), w)
        F[1:] -= sn[1:]
    # the rates
    lam_s = mesh.slot_dissipation * np.maximum(w[slot_end], w[low._ext_end])
    ei = (K * low._ei[..., None] + np.arange(K))
    ej = (K * low._ej[..., None] + np.arange(K))
    lam_p = np.maximum(w[ei], w[ej]) * low._nn
    lam = mesh.ops.E.T @ lam_s.reshape(mesh.n_face_nodes, -1)
    lam += low._absS @ lam_p
    # the pair fluxes and the residual
    pi, pj = low._pi, low._pj
    P = (F[:, ei] + F[:, ej]) * low._pair_w
    P += lam_p * (u[:, pj] - u[:, pi])
    R = low._S @ P
    FX = F[:, low._ext_end] * low._ext_sign
    Rs = (F[:, slot_end] + FX) * low._slot_w + lam_s * (uP - uf)
    R += mesh.ops.E.T @ Rs.reshape(nvar, mesh.n_face_nodes, -1)
    return w, F, lam_p, lam_s, lam, R, P


def bar_state_residual(scheme, u, t, sigmas=None):
    """Low-order residual assembled from bar states: R_i = sum 2 lambda (ubar - u_i).

    ``scheme`` is a ``schemes.Scheme``; only its mesh, gas and face states
    are used, and ``u`` and ``sigmas`` are variable-last, as the scheme
    takes them. Returns (R, lam_nodes, min_bar_density,
    min_bar_internal_energy), R and lam_nodes variable-last too. The
    arithmetic runs component first, on (nvar, npairs, K_c) arrays.
    Algebraically identical to the low-order residual but computed through
    the convex decomposition, with the node pairs taken from the skew parts
    of ``QL_k`` directly, so agreement between the two is a strong check of
    both the decomposition and the scheme.
    """
    mesh = scheme.mesh
    gas = scheme.low.gas
    uc_all = np.ascontiguousarray(u.T)
    nvar, Np, K = uc_all.shape
    dim = mesh.dim
    R = np.zeros_like(uc_all)
    lam_nodes = np.zeros((Np, K))
    bar_rho, bar_e = np.inf, np.inf

    f_all = euler_flux(uc_all, gas)
    if sigmas is not None:
        fms = tuple(f_all[d] - sigmas[d].T for d in range(dim))
    else:
        fms = f_all

    for c, gc in enumerate(mesh.classes):
        elems = np.nonzero(mesh.class_id == c)[0]
        if len(elems) == 0:
            continue
        skews = [0.5 * (Q - Q.T) for Q in gc.QLx]
        mask = np.any([np.abs(S) > 1e-14 for S in skews], axis=0)
        pi, pj = np.nonzero(np.triu(mask, k=1))
        n = np.stack([S[pi, pj] for S in skews])
        nn = np.linalg.norm(n, axis=0)
        unit = (n / nn)[..., None]
        uc = uc_all[:, :, elems]
        ui, uj = uc[:, pi], uc[:, pj]
        if sigmas is None:
            si = sj = None
        else:
            si = tuple(s.T[:, pi][..., elems] for s in sigmas)
            sj = tuple(s.T[:, pj][..., elems] for s in sigmas)
        lam_hat = lam_hat_ref(ui, uj, si, sj, unit, gas)
        lam = lam_hat * nn[:, None]

        dflux = np.zeros_like(ui)
        for d in range(dim):
            fd = fms[d][:, :, elems]
            dflux += unit[d] * (fd[:, pj] - fd[:, pi])
        ubar = 0.5 * (ui + uj) - dflux / (2.0 * lam_hat)
        bar_rho = min(bar_rho, ubar[0].min())
        bar_e = min(bar_e, internal_energy_cf(ubar).min())

        two_lam = 2.0 * lam
        contrib_i = two_lam * (ubar - ui)
        contrib_j = two_lam * (ubar - uj)
        npair = len(pi)
        Spos = np.zeros((Np, npair))
        Spos[pi, np.arange(npair)] = 1.0
        Sneg = np.zeros((Np, npair))
        Sneg[pj, np.arange(npair)] = 1.0
        R[:, :, elems] += np.einsum("ip,vpk->vik", Spos, contrib_i)
        R[:, :, elems] += np.einsum("ip,vpk->vik", Sneg, contrib_j)
        lam_nodes[:, elems] += np.einsum("ip,pk->ik", Spos + Sneg, lam)

    uf, uP, sigf, sigP, nrm = scheme.faces(u, t, sigmas)
    wsj = mesh.slot_wsJ
    fM = euler_flux(uf, gas)
    fP = euler_flux(uP, gas)
    dflux = np.zeros_like(uf)
    for d in range(dim):
        df = fP[d] - fM[d]
        if sigf is not None:
            df = df - sigP[d] + sigf[d]
        dflux += nrm[d] * df
    lam_hat = lam_hat_ref(uf, uP, sigf, sigP, nrm, gas)
    n1 = np.abs(nrm).sum(axis=0)
    ubar_s = 0.5 * (uf + uP) - dflux / (2.0 * n1 * lam_hat)
    bar_rho = min(bar_rho, ubar_s[0].min())
    bar_e = min(bar_e, internal_energy_cf(ubar_s).min())
    lam_s = 0.5 * wsj * n1 * lam_hat
    Rs = 2.0 * lam_s * (ubar_s - uf)
    ET = mesh.ops.E.T
    nf = mesh.n_face_nodes
    R += np.einsum("is,vsk->vik", ET, Rs.reshape(nvar, nf, K))
    lam_nodes += np.einsum("is,sk->ik", ET, lam_s.reshape(nf, K))
    return R.T, lam_nodes.T, bar_rho, bar_e


# ---------------------------------------------------------------------------
# limiters solving for l on every substate
# ---------------------------------------------------------------------------
# The limiters in posdg.limiter skip the solve where the substate's endpoint
# is already inside the bounds; these call solve_l on every substate, one
# pair end at a time, as the limiters did before that screen. Their states
# and bounds are variable-last, (K, Np, nvar) and (K, Np); solve_l takes
# its substates component first.

def _solve_l(uL, P, bounds):
    return solve_l(np.moveaxis(uL, -1, 0), np.moveaxis(P, -1, 0), bounds)


def zhang_shu_limit_ref(uLnew, rL, rH, dt, mesh, bounds, cap=None):
    """Elementwise blend; returns (limited field, l per element)."""
    P = (dt / mesh.mass[..., None]) * (rH - rL)
    l_elem = _solve_l(uLnew, P, bounds).min(axis=1)
    if cap is not None:
        l_elem = np.minimum(l_elem, cap)
    return uLnew + l_elem[:, None, None] * P, l_elem


def convex_limit_ref(mesh, uLnew, dF, dt, bounds, cap=None):
    """Pairwise convex limiting; returns (limited field, min l per element).

    ``dF`` is the solver's (nvar, npairs, K) array; the oracle limits each
    geometry class on its own, with (K_c, npairs, nvar) arrays and one
    scatter per element.
    """
    Np = mesh.ops.n_nodes
    face_count = np.bincount(mesh.ops.face_vol, minlength=Np)
    du = np.zeros_like(uLnew)
    l_min = np.ones(mesh.n_elements)
    for elems, gc in zip(mesh.class_elems, mesh.classes):
        dFc = dF[:, :, elems].T
        pi, pj = gc.pair_i, gc.pair_j
        card = (np.bincount(pi, minlength=Np) + np.bincount(pj, minlength=Np)
                + face_count)
        uLc = uLnew[elems]
        mass = mesh.mass[elems]
        rho_min = bounds.rho_min[elems]
        rhoe_min = bounds.rhoe_min[elems]
        fac_i = (dt * card[pi] / mass[:, pi])[..., None]
        fac_j = (dt * card[pj] / mass[:, pj])[..., None]
        li = _solve_l(uLc[:, pi], fac_i * dFc,
                      Bounds(rho_min[:, pi], rhoe_min[:, pi]))
        lj = _solve_l(uLc[:, pj], -fac_j * dFc,
                      Bounds(rho_min[:, pj], rhoe_min[:, pj]))
        l = np.minimum(li, lj)
        if cap is not None:
            l = np.minimum(l, cap[elems, None])
        l_min[elems] = l.min(axis=1)
        du[elems] = (gc.scatter @ ((dt * l)[..., None] * dFc)
                     / mass[..., None])
    return uLnew + du, l_min


# ---------------------------------------------------------------------------
# face connectivity by nearest-neighbor search
# ---------------------------------------------------------------------------

def connect_ref(face_xy, face_cent, face_normal, extent, periodic, classify):
    """Face-node matching with a KD-tree over (node, centroid, +-normal).

    Same arguments and result as ``posdg.mesh._connect``: flat (n, dim)
    slot arrays in, (exterior, tag) out, a boundary slot its own exterior.
    Nodes and centroids are wrapped onto the lower side of a periodic seam,
    and each slot's key with +normal is looked up among all keys with
    -normal. Quad meshes with a periodic direction one element wide fail
    here: wrapping gives the two ends of a face one period long the same
    node key.
    """
    from scipy.spatial import cKDTree

    n, dim = face_xy.shape
    pts = face_xy.copy()
    cent = face_cent.copy()
    span = np.array([hi - lo for lo, hi in extent])
    lo = np.array([e[0] for e in extent])
    for d in range(dim):
        if periodic[d]:
            for arr in (pts, cent):
                arr[:, d] = lo[d] + np.mod(arr[:, d] - lo[d], span[d])
                seam = np.abs(arr[:, d] - (lo[d] + span[d])) < 1e-9 * span[d]
                arr[seam, d] = lo[d]

    tol = 1e-7 * span.max()
    key_minus = np.hstack([pts, cent, -tol * face_normal])
    key_plus = np.hstack([pts, cent, tol * face_normal])
    dist, idx = cKDTree(key_minus).query(key_plus, k=1,
                                         distance_upper_bound=0.5 * tol)
    bdry = ~np.isfinite(dist)
    exterior = np.where(bdry, np.arange(n), idx).astype(np.int64)
    if np.any(exterior[exterior] != np.arange(n)):
        raise RuntimeError("face matching is not symmetric; mesh broken")

    tag = np.zeros(n, dtype=np.int64)
    if np.any(bdry):
        if classify is None:
            tag[bdry] = 1
        else:
            tags = np.asarray(classify(face_xy[bdry]), dtype=np.int64)
            if np.any(tags <= 0):
                raise ValueError("boundary classifier must return positive tags")
            tag[bdry] = tags
    return exterior, tag


# ---------------------------------------------------------------------------
# pointwise kernels written with reductions over the short variable axis
# ---------------------------------------------------------------------------
# These are the np.sum / np.einsum / np.stack forms of the kernels in
# posdg.physics and posdg.limiter.solve_l, on the same component-first
# arrays: states (nvar, ...), directions and velocities (dim, ...). The
# solver writes the component sums out explicitly; over an axis of length
# 1-2 both forms add the same products in the same order, so the two must
# agree bit for bit.

def _along(n, u):
    """A direction (dim, ...) with unit axes inserted after its first, so it
    broadcasts against the components of ``u`` (nvar, ...) as the kernels'
    n[k] broadcast against u[k]."""
    n = np.asarray(n, dtype=float)
    return n.reshape(n.shape[:1] + (1,) * (np.ndim(u) - n.ndim) + n.shape[1:])


def internal_energy_ref(u):
    rho, mom, E = u[0], u[1:-1], u[-1]
    return E - 0.5 * np.sum(mom * mom, axis=0) / rho


def ec_prims_ref(u, gas):
    """The node table [rho, rho / p, v / 2, |v|^2 / 4], stacked from its
    rows."""
    u = np.asarray(u, dtype=float)
    rho, mom = u[0], u[1:-1]
    half = 0.5 * (mom / rho)
    rho_p = rho / ((gas.gamma - 1.0) * internal_energy_ref(u))
    vsq4 = np.sum(half * half, axis=0)
    return np.concatenate([rho[None], rho_p[None], half, vsq4[None]])


def _table_rows(tab):
    """(rho, vel, beta, vsq) of an ``ec_prims`` table: its rows rescaled
    by the powers of two that ``ec_prims`` applied, so exactly beta =
    rho / (2p), the velocity and |v|^2."""
    return tab[0], 2.0 * tab[2:-1], 0.5 * tab[1], 4.0 * tab[-1]


def log_mean_ref(a, b):
    """Logarithmic mean |a - b| / log1p(|a - b| / min(a, b)), formed
    everywhere, with a selected by ``np.where`` where a = b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = np.abs(a - b)
    with np.errstate(invalid="ignore"):
        quotient = gap / np.log1p(gap / np.minimum(a, b))
    return np.where(a == b, a, quotient)


def ec_fluxes_prims_ref(primsL, primsR, n, gas):
    """The two-point EC flux along ``n`` from ``ec_prims`` tables, one fresh
    array per intermediate: the mean velocity's normal component and the
    energy flux h F_rho + sum_j v_j F_mj are ``np.sum`` reductions."""
    rhoL, velL, betaL, vsqL = _table_rows(primsL)
    rhoR, velR, betaR, vsqR = _table_rows(primsR)
    g = gas.gamma
    rho_ln = log_mean_ref(rhoL, rhoR)
    beta_ln = log_mean_ref(betaL, betaR)
    vel_a = 0.5 * (velL + velR)
    p_a = 0.5 * (rhoL + rhoR) / (2.0 * 0.5 * (betaL + betaR))
    vsq_a = 0.5 * (vsqL + vsqR)
    h_term = 0.5 / ((g - 1.0) * beta_ln) - 0.5 * vsq_a
    n = _along(n, vel_a)
    f0 = rho_ln * np.sum(vel_a * n, axis=0)
    mom = vel_a * f0 + p_a * n
    fE = np.sum(np.concatenate([(h_term * f0)[None], vel_a * mom]), axis=0)
    return np.concatenate([f0[None], mom, fE[None]])


def ec_flux_k_ref(primsL, primsR, k, gas):
    """The two-point EC flux of direction k alone, f_kS, written per
    direction as the solver once evaluated it: the mean velocity component
    v_k in place of the normal one, and the pressure added to one
    momentum component."""
    rhoL, velL, betaL, vsqL = _table_rows(primsL)
    rhoR, velR, betaR, vsqR = _table_rows(primsR)
    g = gas.gamma
    rho_ln = log_mean_ref(rhoL, rhoR)
    beta_ln = log_mean_ref(betaL, betaR)
    vel_a = 0.5 * (velL + velR)
    p_a = 0.5 * (rhoL + rhoR) / (betaL + betaR)
    h_term = 0.5 / ((g - 1.0) * beta_ln) - 0.5 * (0.5 * (vsqL + vsqR))
    f0 = rho_ln * vel_a[k]
    mom = vel_a * f0
    mom[k] += p_a
    fE = np.sum(np.concatenate([(h_term * f0)[None], vel_a * mom]), axis=0)
    return np.concatenate([f0[None], mom, fE[None]])


def normal_flux_ref(u, n, gas):
    """The inviscid flux along ``n``, (nvar, ...): the mass flux m . n, the
    momentum flux m (m . n) / rho + p n and the energy flux (E + p) (m . n)
    / rho, with m . n an ``np.sum`` reduction."""
    rho, mom, E = u[0], u[1:-1], u[-1]
    n = _along(n, u)
    p = (gas.gamma - 1.0) * internal_energy_ref(u)
    mn = np.sum(mom * n, axis=0)
    un = mn / rho
    return np.concatenate([mn[None], mom * un + p * n, ((E + p) * un)[None]])


def davis_wavespeed_ref(u, n, gas):
    rho, mom = u[0], u[1:-1]
    p = (gas.gamma - 1.0) * internal_energy_ref(u)
    c = np.sqrt(gas.gamma * p / rho)
    un = np.sum(mom * _along(n, u), axis=0) / rho
    return np.abs(un) + c


def zhang_beta_ref(u, sn, n, gas, eps0=1e-14):
    """Zhang's viscous wavespeed bound from the normal viscous flux ``sn``
    = sigma . n (None for inviscid states): tau . n its momentum rows and
    q . n = u . (tau . n) - (sigma . n)_E, with ``np.sum`` reductions."""
    u = np.asarray(u, dtype=float)
    n = _along(n, u)
    dim = len(u) - 2
    rho, mom = u[0], u[1:-1]
    vel = mom / rho
    rhoe = internal_energy_ref(u)
    p = (gas.gamma - 1.0) * rhoe
    un = np.sum(vel * n, axis=0)

    shape = np.broadcast_shapes(rho.shape, n.shape[1:])
    if sn is None:
        tau_n = np.zeros((dim,) + shape)
        qn = np.zeros(shape)
    else:
        tau_n = sn[1:-1]
        qn = np.sum(vel * tau_n, axis=0) - sn[-1]
    visc = tau_n - p * n
    root = np.sqrt(rho ** 2 * qn ** 2
                   + 2.0 * rho * rhoe * np.sum(visc * visc, axis=0))
    return eps0 + np.abs(un) + (root + rho * np.abs(qn)) / (2.0 * rho * rhoe)


def zhang_beta_directions_ref(u, sigma, n, gas, eps0=1e-14):
    """Zhang's bound from the per-direction viscous fluxes ``sigma``, as
    the solver once formed it: tau . n summed from the stress rows tau_k
    and q . n from the heat fluxes q_k = u . tau_k - sigma_k[energy] of
    each direction."""
    u = np.asarray(u, dtype=float)
    n = _along(n, u)
    dim = len(u) - 2
    rho, mom = u[0], u[1:-1]
    vel = mom / rho
    rhoe = internal_energy_ref(u)
    p = (gas.gamma - 1.0) * rhoe
    un = np.sum(vel * n, axis=0)

    shape = np.broadcast_shapes(rho.shape, n.shape[1:])
    tau = np.stack([sigma[k][1:-1] for k in range(dim)])
    tau_n = np.einsum("kj...,k...->j...", tau,
                      np.broadcast_to(n, (dim,) + shape))
    q = np.stack(
        [np.sum(vel * sigma[k][1:-1], axis=0) - sigma[k][-1]
         for k in range(dim)])
    qn = np.sum(q * n, axis=0)
    visc = tau_n - p * n
    root = np.sqrt(rho ** 2 * qn ** 2
                   + 2.0 * rho * rhoe * np.sum(visc * visc, axis=0))
    return eps0 + np.abs(un) + (root + rho * np.abs(qn)) / (2.0 * rho * rhoe)


def viscous_sigma_ref(v, thetas, gas):
    """The viscous fluxes sigma_k of ``viscous_sigma``, one (nvar, ...)
    array per direction, with the full stress matrix mu (grad + grad^T)
    formed at once and its diagonal replaced, and the work u . tau_k an
    ``np.sum`` reduction."""
    th = np.asarray(thetas, dtype=float)
    dim = len(v) - 2
    mu = gas.mu
    kap = gas.gamma * mu / gas.Pr
    vlast = v[-1]
    vel = -v[1:-1] / vlast
    # grad[k, j] = du_j / dx_k
    grad = (v[1:-1] * th[:, -1:] - vlast * th[:, 1:-1]) / vlast ** 2
    tau = mu * (grad + grad.swapaxes(0, 1))
    for k in range(dim):
        d = (4.0 / 3.0) * grad[k, k]
        if dim == 2:
            d = d - (2.0 / 3.0) * grad[1 - k, 1 - k]
        tau[k, k] = mu * d
    energy = np.sum(vel * tau, axis=1) + th[:, -1] / vlast ** 2 * kap
    return tuple(np.concatenate([np.zeros_like(vlast)[None], tau[k],
                                 energy[k][None]]) for k in range(dim))


def mirror_state_ref(u, n):
    u = np.asarray(u, dtype=float)
    n = _along(n, u)
    mom = u[1:-1]
    mn = np.sum(mom * n, axis=0, keepdims=True)
    out = u.copy()
    out[1:-1] = mom - 2.0 * mn * n
    return out


def wall_riemann_state_ref(u, n, gas, pfloor=1e-14):
    u = np.asarray(u, dtype=float)
    n = _along(n, u)
    g = gas.gamma
    rho = u[0]
    p = np.maximum((g - 1.0) * internal_energy_ref(u), pfloor)
    un = np.sum(u[1:-1] * n, axis=0) / rho
    c = np.sqrt(g * p / rho)

    A = 2.0 / ((g + 1.0) * rho)
    B = (g - 1.0) / (g + 1.0) * p
    disc = (2.0 * A * p + un ** 2) ** 2 - 4.0 * A * (A * p ** 2 - un ** 2 * B)
    p_shock = ((2.0 * A * p + un ** 2) + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * A)
    base = np.maximum(1.0 + (g - 1.0) * un / (2.0 * c), pfloor)
    p_rare = p * base ** (2.0 * g / (g - 1.0))
    pstar = np.where(un > 0.0, p_shock, p_rare)

    out = mirror_state_ref(u, n)
    mom = out[1:-1]
    kin = 0.5 * np.sum(mom * mom, axis=0) / rho
    rhoe_new = np.maximum(pstar / (g - 1.0), pfloor + 1e-13 * kin)
    out[-1] = rhoe_new + kin
    return out


def solve_l_ref(uL, P, rho_min, rhoe_min):
    """Largest l in [0, 1] with rho and rho (rhoe - rhoe_min) >= 0 on uL + l P.

    The energy part is the root where g(l) = a l^2 + b l + c (c clamped at
    zero) crosses from >= 0 to < 0, from the stable pair of roots c/q and
    q/a, q = -(b + sign(b) sqrt(disc)) / 2, chosen case by case: q > 0
    gives c/q; a < 0 gives q/a; anything else never crosses.
    """
    rhoL, EL = uL[0], uL[-1]
    mL = uL[1:-1]
    rhoP, EP = P[0], P[-1]
    mP = P[1:-1]
    rho_min = np.broadcast_to(rho_min, rhoL.shape)
    rhoe_min = np.broadcast_to(rhoe_min, rhoL.shape)

    with np.errstate(divide="ignore", invalid="ignore"):
        l_rho = np.where(rhoL + rhoP >= rho_min, 1.0,
                         (rho_min - rhoL) / np.where(rhoP == 0.0, 1.0, rhoP))
    l_rho = np.clip(l_rho, 0.0, 1.0)

    a = EP * rhoP - 0.5 * np.sum(mP * mP, axis=0)
    b = (EL * rhoP + EP * rhoL - np.sum(mL * mP, axis=0)
         - rhoe_min * rhoP)
    c = np.maximum(EL * rhoL - 0.5 * np.sum(mL * mL, axis=0)
                   - rhoe_min * rhoL, 0.0)

    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    q = -0.5 * (b + np.where(np.signbit(b), -root, root))
    with np.errstate(divide="ignore", invalid="ignore"):
        l_e = np.select([q > 0.0, a < 0.0], [c / q, q / a], np.inf)

    return np.minimum(l_rho, np.clip(l_e, 0.0, 1.0))


def write_vtk_ascii_ref(path, mesh, gas, u, l_elem=None):
    """Legacy ASCII VTK unstructured grid of the nodal subgrid, every value
    written with 17 significant digits: the layout and values that
    ``cli.write_vtk`` encodes in binary.

    Point data: rho, u, v, p, the Schlieren transform of rho, and the
    per-element limiter parameter l_e broadcast to the element's nodes
    (all ones when no limiter ran).
    """
    K, Np = mesh.xy.shape[:2]
    pts = np.zeros((K * Np, 3))
    pts[:, :mesh.dim] = mesh.xy.reshape(K * Np, mesh.dim)
    sub = _subgrid_cells(mesh)
    cells = (sub[None, :, :] + (np.arange(K) * Np)[:, None, None])
    cells = cells.reshape(-1, sub.shape[1])
    n_cells, m = cells.shape
    geometry = "".join(
        [f"POINTS {K * Np} double\n"]
        + [f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pts.tolist()]
        + [f"CELLS {n_cells} {n_cells * (m + 1)}\n"]
        + [f"{m} " + " ".join(map(str, c)) + "\n" for c in cells.tolist()]
        + [f"CELL_TYPES {n_cells}\n", f"{_VTK_TYPE[mesh.elem]}\n" * n_cells])

    prim = conserved_to_primitive(u, gas)
    flatten = lambda a: np.asarray(a, dtype=float).reshape(-1)
    zeros = np.zeros(K * Np)
    if l_elem is None:
        l_pts = np.ones(K * Np)
    else:
        l_pts = np.repeat(np.asarray(l_elem, dtype=float), Np)
    data = [
        ("rho", flatten(u[..., 0])),
        ("u", flatten(prim[..., 1])),
        ("v", flatten(prim[..., 2]) if mesh.dim == 2 else zeros),
        ("p", flatten(prim[..., -1])),
        ("schlieren", flatten(schlieren(u[..., 0], mesh))),
        ("l_e", l_pts),
    ]

    with open(path, "w", newline="") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("posdg fields\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(geometry)
        f.write(f"POINT_DATA {K * Np}\n")
        for name, arr in data:
            f.write(f"SCALARS {name} double\n")
            f.write("LOOKUP_TABLE default\n")
            f.write("".join([f"{v:.17g}\n" for v in arr.tolist()]))


def _csv_rows_ref(columns):
    """CSV lines from equal-length columns of ready strings or numbers,
    every number with 17 significant digits."""
    text = [c if isinstance(c, list) else
            [f"{v:.17g}" for v in np.asarray(c, dtype=float).tolist()]
            for c in columns]
    return "".join([",".join(row) + "\n" for row in zip(*text)])


def fields_csv_ref(mesh, gas, u):
    """The text of ``final.csv``, formatted from whole-state arrays at
    once: the bytes that ``cli._write_fields_csv`` writes block by
    block."""
    prim = conserved_to_primitive(u, gas)
    if mesh.dim == 1:
        cols = ["element", "x", "rho", "mom_x", "energy", "u", "p"]
    else:
        cols = ["element", "x", "y", "rho", "mom_x", "mom_y", "energy",
                "u", "v", "p"]
    K, Np = u.shape[:2]
    element = [f"{k}" for k in range(K) for _ in range(Np)]
    data = np.concatenate([mesh.xy, u, prim[..., 1:]], axis=-1)
    return (f"# {SCHEMA} fields\n" + ",".join(cols) + "\n"
            + _csv_rows_ref([element, *data.reshape(K * Np, -1).T]))


def limiter_rows_ref(step, u, rep):
    """The ``limiter.csv`` lines of one step, formatted from whole-state
    arrays at once: l_e, xi and the minima per element."""
    K = len(rep.l_elem)
    xi = rep.shock_xi if rep.shock_xi is not None else np.ones(K)
    return _csv_rows_ref([[f"{step}"] * K, [f"{k}" for k in range(K)],
                          rep.l_elem, xi, u[..., 0].min(axis=1),
                          internal_energy(u).min(axis=1)])


def vtk_bytes_ref(mesh, gas, u, l_elem=None):
    """The bytes of ``cli.write_vtk``'s binary legacy VTK file, formed in
    one buffer: header, geometry, then one section per point array."""
    K, Np = mesh.xy.shape[:2]
    pts = np.zeros((K * Np, 3))
    pts[:, :mesh.dim] = mesh.xy.reshape(K * Np, mesh.dim)
    sub = _subgrid_cells(mesh)[None] + (np.arange(K) * Np)[:, None, None]
    n_cells, m = K * sub.shape[1], sub.shape[2]
    cells = np.insert(sub.reshape(n_cells, m), 0, m, axis=1)
    prim = conserved_to_primitive(u, gas)
    l_e = np.ones(K) if l_elem is None else np.asarray(l_elem, dtype=float)
    data = [
        ("rho", u[..., 0]),
        ("u", prim[..., 1]),
        ("v", prim[..., 2] if mesh.dim == 2 else np.zeros(K * Np)),
        ("p", prim[..., -1]),
        ("schlieren", schlieren(u[..., 0], mesh)),
        ("l_e", np.repeat(l_e, Np)),
    ]
    parts = [b"# vtk DataFile Version 3.0\nposdg fields\nBINARY\n"
             b"DATASET UNSTRUCTURED_GRID\n",
             f"POINTS {K * Np} double\n".encode(), pts.astype(">f8").tobytes(),
             f"\nCELLS {n_cells} {cells.size}\n".encode(),
             cells.astype(">i4").tobytes(),
             f"\nCELL_TYPES {n_cells}\n".encode(),
             np.full(n_cells, _VTK_TYPE[mesh.elem]).astype(">i4").tobytes(),
             f"\nPOINT_DATA {K * Np}\n".encode()]
    for name, arr in data:
        parts += [f"SCALARS {name} double\nLOOKUP_TABLE default\n".encode(),
                  arr.astype(">f8").tobytes(), b"\n"]
    return b"".join(parts)
