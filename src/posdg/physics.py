"""Compressible-flow state algebra.

Conserved states are arrays with the variable index last: (rho, m_x, E) in
one dimension and (rho, m_x, m_y, E) in two. All functions broadcast over
arbitrary leading axes.

The entropy pair used throughout is eta(u) = -rho s with s = log(p / rho^gamma),
whose gradient gives the entropy variables

    v = (gamma + 1 - s - rho e_int / (rho e), m / (rho e), -rho / (rho e))

with rho e = E - |m|^2 / (2 rho) the internal energy density. The matching
flux potential is psi_k = (gamma - 1) rho u_k.

Sums over the components of momentum, velocity or a direction are written
out term by term (``_dot``), never reduced over the short variable axis:
these kernels run at every node and pair of every stage, and a reduction
over an axis of length 1 or 2 costs several times the arithmetic it does.
The two-point flux kernels (``log_mean``, ``ec_fluxes_prims``) take an
optional :class:`~posdg.workspace.Workspace` and then write every
intermediate into its buffers; without one they return fresh arrays.
``ec_prims`` and ``ec_fluxes_prims`` are the exception to the variable-last
rule: they serve the pair kernels, whose arrays are laid out (variable,
pair, element), and take and return their states component first, so each
component is one contiguous block. ``ec_fluxes`` keeps the variable-last
interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .workspace import Workspace

__all__ = [
    "GasParams",
    "primitive_to_conserved",
    "conserved_to_primitive",
    "pressure",
    "internal_energy",
    "is_admissible",
    "entropy",
    "entropy_potential",
    "entropy_vars",
    "entropy_to_conserved",
    "log_mean",
    "euler_flux",
    "ec_prims",
    "ec_fluxes_prims",
    "ec_fluxes",
    "davis_wavespeed",
    "zhang_beta",
    "viscous_sigma",
    "mirror_state",
    "wall_riemann_state",
    "noslip_state",
]


@dataclass(frozen=True)
class GasParams:
    """Ideal-gas and transport parameters.

    ``mu`` is the dynamic viscosity in the nondimensional momentum equation;
    the effective viscosity is ``mu / Re`` so configurations can state either
    a plain viscosity (Re = 1) or a Reynolds number (mu = 1).
    """

    gamma: float = 1.4
    mu: float = 0.0
    Re: float = 1.0
    Pr: float = 0.75

    @property
    def mu_eff(self) -> float:
        return self.mu / self.Re

    @property
    def viscous(self) -> bool:
        return self.mu_eff != 0.0


def _split(u):
    rho = u[..., 0]
    mom = u[..., 1:-1]
    E = u[..., -1]
    return rho, mom, E


def _dot(a, b):
    """a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + ..., in index order.

    Bitwise equal to ``np.sum(a * b, axis=-1)`` for the 1-3 components used
    here; ``a`` and ``b`` broadcast against each other.
    """
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k] * b[..., k]
    return out


def internal_energy(u):
    """rho e = E - |m|^2 / (2 rho)."""
    rho, mom, E = _split(u)
    return E - 0.5 * _dot(mom, mom) / rho


def pressure(u, gas: GasParams):
    return (gas.gamma - 1.0) * internal_energy(u)


def is_admissible(u, eps: float = 0.0):
    rho = u[..., 0]
    return (rho > eps) & (internal_energy(u) > eps)


def primitive_to_conserved(prim, gas: GasParams):
    """(rho, velocities..., p) -> conserved."""
    prim = np.asarray(prim, dtype=float)
    rho = prim[..., 0]
    vel = prim[..., 1:-1]
    p = prim[..., -1]
    u = np.empty_like(prim)
    u[..., 0] = rho
    u[..., 1:-1] = rho[..., None] * vel
    u[..., -1] = p / (gas.gamma - 1.0) + 0.5 * rho * _dot(vel, vel)
    return u


def conserved_to_primitive(u, gas: GasParams):
    rho, mom, E = _split(u)
    prim = np.empty_like(u)
    prim[..., 0] = rho
    prim[..., 1:-1] = mom / rho[..., None]
    prim[..., -1] = pressure(u, gas)
    return prim


def entropy(u, gas: GasParams):
    """eta(u) = -rho log(p / rho^gamma)."""
    rho = u[..., 0]
    p = pressure(u, gas)
    return -rho * (np.log(p) - gas.gamma * np.log(rho))


def entropy_potential(u, gas: GasParams):
    """psi_k = (gamma - 1) rho u_k, one column per direction."""
    rho, mom, _ = _split(u)
    return (gas.gamma - 1.0) * mom


def entropy_vars(u, gas: GasParams):
    rho, mom, E = _split(u)
    rhoe = internal_energy(u)
    p = (gas.gamma - 1.0) * rhoe
    s = np.log(p) - gas.gamma * np.log(rho)
    v = np.empty_like(u)
    v[..., 0] = (gas.gamma + 1.0 - s) - E / rhoe
    v[..., 1:-1] = mom / rhoe[..., None]
    v[..., -1] = -rho / rhoe
    return v


def entropy_to_conserved(v, gas: GasParams):
    v = np.asarray(v, dtype=float)
    g = gas.gamma
    vel = v[..., 1:-1]
    vlast = v[..., -1]
    vsq = _dot(vel, vel)
    s = g - v[..., 0] + 0.5 * vsq / vlast
    rhoe = ((g - 1.0) / (-vlast) ** g) ** (1.0 / (g - 1.0)) * np.exp(-s / (g - 1.0))
    u = np.empty_like(v)
    u[..., 0] = -rhoe * vlast
    u[..., 1:-1] = rhoe[..., None] * vel
    u[..., -1] = rhoe * (1.0 - 0.5 * vsq / vlast)
    return u


def log_mean(a, b, ws=None):
    """Logarithmic mean (a - b) / log(a / b), series expansion near a = b.

    The series (a + b) / (2 (1 + zeta/3 + zeta^2/5 + zeta^3/7)), with
    zeta = ((a - b)/(a + b))^2, is formed everywhere. Where zeta is not
    below 1e-4 it is overwritten by the exact quotient, evaluated on those
    entries only: on the pair states of a stage they are 5-10%, so the
    logarithm runs on few entries. The result and the temporaries come
    from the workspace ``ws`` (a fresh one by default).
    """
    ws = Workspace() if ws is None else ws
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = ws.take(shape)
    with ws.frame():
        da = np.subtract(a, b, out=ws.take(shape))
        sa = np.add(a, b, out=ws.take(shape))
        zeta = np.divide(da, sa, out=ws.take(shape))
        np.square(zeta, out=zeta)
        np.divide(zeta, 7.0, out=out)
        out += 1.0 / 5.0
        out *= zeta
        out += 1.0 / 3.0
        out *= zeta
        out += 1.0
        out *= 2.0
        np.divide(sa, out, out=out)
        far = np.less(zeta, 1e-4, out=ws.take(shape, bool))
        far = np.flatnonzero(np.logical_not(far, out=far))
        if far.size:
            ratio = (np.broadcast_to(a, shape).flat[far]
                     / np.broadcast_to(b, shape).flat[far])
            out.reshape(-1)[far] = da.reshape(-1)[far] / np.log(ratio)
    return out


def euler_flux(u, gas: GasParams):
    """Physical inviscid fluxes, one (..., nvar) array per direction."""
    rho, mom, E = _split(u)
    p = pressure(u, gas)
    dim = u.shape[-1] - 2
    out = []
    for k in range(dim):
        uk = mom[..., k] / rho
        f = np.empty_like(u)
        f[..., 0] = mom[..., k]
        for j in range(dim):
            f[..., 1 + j] = mom[..., j] * uk
        f[..., 1 + k] += p
        f[..., -1] = (E + p) * uk
        out.append(f)
    return tuple(out)


def _dot0(a, b):
    """``_dot`` over the first axis: a[0] * b[0] + a[1] * b[1] + ..."""
    out = a[0] * b[0]
    for k in range(1, len(a)):
        out = out + a[k] * b[k]
    return out


def ec_prims(u, gas: GasParams):
    """(rho, vel, beta, vsq) entering the two-point flux, per state.

    Component first: ``u`` is (nvar, ...) and ``vel`` (dim, ...). Exposed
    separately so pairwise flux evaluations over many pairs drawn from few
    distinct states (the flux-differencing volume term) can compute these
    once per state and gather.
    """
    u = np.asarray(u, dtype=float)
    rho, mom, E = u[0], u[1:-1], u[-1]
    vel = mom / rho
    # rho / (2 pressure(u)), the components written out
    p = (gas.gamma - 1.0) * (E - 0.5 * _dot0(mom, mom) / rho)
    beta = rho / (2.0 * p)
    return rho, vel, beta, _dot0(vel, vel)


def ec_fluxes_prims(primsL, primsR, gas: GasParams, ws=None):
    """Two-point fluxes from precomputed ``ec_prims`` tuples.

    Component first, as ``ec_prims``: one (nvar, ...) flux per direction.
    The flux arrays are taken from the caller's frame of the workspace
    ``ws`` (a fresh one by default), the temporaries from a frame of their
    own, so a caller that reuses its workspace allocates only the
    near-equal entries of :func:`log_mean` here.
    """
    ws = Workspace() if ws is None else ws
    rhoL, velL, betaL, vsqL = primsL
    rhoR, velR, betaR, vsqR = primsR
    g = gas.gamma
    dim = len(velL)
    shape = np.broadcast_shapes(rhoL.shape, rhoR.shape)
    out = tuple(ws.take((dim + 2,) + shape) for _ in range(dim))
    with ws.frame():
        take = ws.take
        rho_ln = log_mean(rhoL, rhoR, ws)
        # h = 1 / (2 (gamma - 1) beta_ln) - |v|^2_avg / 2
        h = log_mean(betaL, betaR, ws)
        vel_a = np.add(velL, velR, out=take((dim,) + shape))
        np.multiply(0.5, vel_a, out=vel_a)
        # p_a = rho_avg / (2 beta_avg)
        p_a = np.add(rhoL, rhoR, out=take(shape))
        np.multiply(0.5, p_a, out=p_a)
        t = np.add(betaL, betaR, out=take(shape))
        np.divide(p_a, t, out=p_a)
        np.multiply(g - 1.0, h, out=h)
        np.divide(0.5, h, out=h)
        np.add(vsqL, vsqR, out=t)
        np.multiply(0.5, t, out=t)
        np.multiply(0.5, t, out=t)
        np.subtract(h, t, out=h)

        # f[c, ...] stays an array view when the states are scalars
        for k, f in enumerate(out):
            f0 = np.multiply(rho_ln, vel_a[k], out=f[0, ...])
            for j in range(dim):
                np.multiply(vel_a[j], f0, out=f[1 + j, ...])
            f[1 + k] += p_a
            fE = np.multiply(h, f0, out=f[-1, ...])
            for j in range(dim):
                np.multiply(vel_a[j], f[1 + j], out=t)
                fE += t
    return out


def ec_fluxes(uL, uR, gas: GasParams):
    """Entropy-conservative, kinetic-energy-preserving two-point fluxes.

    Built from arithmetic means of velocity and density, the logarithmic
    mean of density and of beta = rho / (2p). Returns one flux array per
    direction, with the variable index last; inputs broadcast against each
    other.
    """
    uL, uR = (np.moveaxis(np.asarray(a, dtype=float), -1, 0) for a in (uL, uR))
    return tuple(np.moveaxis(f, 0, -1) for f in
                 ec_fluxes_prims(ec_prims(uL, gas), ec_prims(uR, gas), gas))


def _dot_into(a, b, out, tmp):
    """``_dot(a, b)`` written into ``out``, with ``tmp`` as scratch."""
    np.multiply(a[..., 0], b[..., 0], out=out)
    for k in range(1, a.shape[-1]):
        out += np.multiply(a[..., k], b[..., k], out=tmp)
    return out


def _internal_energy_into(rho, mom, E, out, tmp):
    """``internal_energy`` of the split state, written into ``out``."""
    _dot_into(mom, mom, out, tmp)
    np.multiply(0.5, out, out=out)
    np.divide(out, rho, out=out)
    return np.subtract(E, out, out=out)


def davis_wavespeed(uL, uR, n, gas: GasParams, ws=None):
    """max(|u_L . n| + c_L, |u_R . n| + c_R) for a unit normal ``n``.

    With ``uR`` None, the one-sided speed |u_L . n| + c_L. The result is
    taken from the caller's frame of the workspace ``ws`` (a fresh one by
    default), the temporaries from a frame of their own.
    """
    ws = Workspace() if ws is None else ws
    n = np.asarray(n)
    ends = (uL,) if uR is None else (uL, uR)
    shape = np.broadcast_shapes(n.shape[:-1], *(u.shape[:-1] for u in ends))
    out = ws.take(shape)
    with ws.frame():
        tmp = ws.take(shape)
        for k, u in enumerate(ends):
            rho, mom, E = _split(u)
            # c = sqrt(gamma p / rho), with p = (gamma - 1) rho e
            c = ws.take(rho.shape)
            _internal_energy_into(rho, mom, E, c, ws.take(rho.shape))
            np.multiply(gas.gamma - 1.0, c, out=c)
            np.multiply(gas.gamma, c, out=c)
            np.divide(c, rho, out=c)
            np.sqrt(c, out=c)
            lam = out if k == 0 else ws.take(shape)
            _dot_into(mom, n, lam, tmp)
            np.divide(lam, rho, out=lam)
            np.abs(lam, out=lam)
            lam += c
            if k:
                np.maximum(out, lam, out=out)
    return out


def zhang_beta(u, sigma, n, gas: GasParams, eps0: float = 1e-14, ws=None):
    """Maximum wavespeed bound for first-order viscous bar states.

    ``sigma`` is the tuple of viscous fluxes per direction (may be None for
    inviscid states), ``n`` a direction vector (not necessarily unit). The
    bound guarantees positivity of intermediate states of the viscous
    Riemann problem.

    It is even in ``n`` bit for bit: n enters only through products n_k x,
    whose sums change sign exactly with n, and these reach the result only
    through |.| or a square. For an inviscid state (``sigma`` None) and a
    unit ``n`` it is eps0 + |u.n| + sqrt((gamma - 1) / (2 gamma)) c, below
    the Davis speed |u.n| + c whenever c exceeds about 3.5 eps0, so the
    low-order scheme does not evaluate it for inviscid gases (see
    :mod:`posdg.rhs_low`). The result is taken from the caller's frame of
    the workspace ``ws`` (a fresh one by default), the temporaries from a
    frame of their own.
    """
    ws = Workspace() if ws is None else ws
    u = np.asarray(u, dtype=float)
    n = np.asarray(n, dtype=float)
    dim = u.shape[-1] - 2
    rho, mom, E = _split(u)
    ushape = rho.shape
    shape = np.broadcast_shapes(ushape, n.shape[:-1])
    out = ws.take(shape)
    with ws.frame():
        take = ws.take
        a, b = take(shape), take(shape)
        t = take(ushape)
        vel = np.divide(mom, rho[..., None], out=take(mom.shape))
        rhoe = _internal_energy_into(rho, mom, E, take(ushape), t)
        p = np.multiply(gas.gamma - 1.0, rhoe, out=take(ushape))
        # eps0 + |u.n|
        np.abs(_dot_into(vel, n, out, a), out=out)
        np.add(eps0, out, out=out)
        # 2 rho^2 e = 2 rho (rho e), with e the specific internal energy
        den = np.multiply(2.0, rho, out=take(ushape))
        den *= rhoe

        if sigma is None:
            # tau = 0 and q = 0: |tau.n - p n|^2 = |p n|^2
            for k in range(dim):
                pn = np.multiply(p, n[..., k], out=b)
                np.multiply(pn, pn, out=a if k == 0 else pn)
                if k:
                    a += pn
            np.multiply(den, a, out=a)
            np.sqrt(a, out=a)
            np.divide(a, den, out=a)
            out += a
            return out

        # tau_k (row k of the stress) is the momentum part of sigma_k, and
        # the heat flux q_k = u . tau_k - sigma_k[energy]
        tau = [s[..., 1:-1] for s in sigma]
        qn, q = take(shape), take(shape)
        for k in range(dim):
            qk = _dot_into(vel, tau[k], take(ushape), t)
            np.subtract(qk, sigma[k][..., -1], out=qk)
            np.multiply(qk, n[..., k], out=qn if k == 0 else q)
            if k:
                qn += q
        # |tau.n - p n|^2, with (tau.n)_j = sum_k tau_kj n_k
        visc2 = b
        for j in range(dim):
            vj = np.multiply(tau[0][..., j], n[..., 0], out=a)
            for k in range(1, dim):
                vj += np.multiply(tau[k][..., j], n[..., k], out=q)
            vj -= np.multiply(p, n[..., j], out=q)
            if j == 0:
                np.multiply(vj, vj, out=visc2)
            else:
                visc2 += np.multiply(vj, vj, out=q)
        # root = sqrt(rho^2 qn^2 + den visc2)
        root = np.square(qn, out=a)
        root *= np.square(rho, out=t)
        visc2 *= den
        root += visc2
        np.sqrt(root, out=root)
        # (root + rho |qn|) / den
        np.abs(qn, out=qn)
        qn *= rho
        root += qn
        root /= den
        out += root
    return out


def viscous_sigma(v, thetas, gas: GasParams):
    """Viscous fluxes sigma_k = K_k(v) theta from entropy variables and
    their gradients, evaluated matrix-free.

    ``thetas`` is a tuple of (..., nvar) gradient arrays, one per direction.
    Stokes hypothesis (bulk viscosity zero) and Fourier heat conduction with
    kappa = gamma mu_eff / Pr in terms of specific internal energy.
    """
    v = np.asarray(v, dtype=float)
    dim = v.shape[-1] - 2
    mu = gas.mu_eff
    kap = gas.gamma * mu / gas.Pr
    vlast = v[..., -1]
    vl2 = vlast * vlast

    if dim == 1:
        th = thetas[0]
        u1 = -v[..., 1] / vlast
        u_x = (v[..., 1] * th[..., -1] - vlast * th[..., 1]) / vl2
        e_x = th[..., -1] / vl2
        s = np.zeros_like(v)
        s[..., 1] = (4.0 / 3.0) * mu * u_x
        s[..., 2] = (4.0 / 3.0) * mu * u1 * u_x + kap * e_x
        return (s,)

    thx, thy = thetas
    u1 = -v[..., 1] / vlast
    u2 = -v[..., 2] / vlast
    u_x = (v[..., 1] * thx[..., -1] - vlast * thx[..., 1]) / vl2
    u_y = (v[..., 1] * thy[..., -1] - vlast * thy[..., 1]) / vl2
    v_x = (v[..., 2] * thx[..., -1] - vlast * thx[..., 2]) / vl2
    v_y = (v[..., 2] * thy[..., -1] - vlast * thy[..., 2]) / vl2
    e_x = thx[..., -1] / vl2
    e_y = thy[..., -1] / vl2
    tau_xx = mu * ((4.0 / 3.0) * u_x - (2.0 / 3.0) * v_y)
    tau_yy = mu * ((4.0 / 3.0) * v_y - (2.0 / 3.0) * u_x)
    tau_xy = mu * (u_y + v_x)
    sx = np.zeros_like(v)
    sx[..., 1] = tau_xx
    sx[..., 2] = tau_xy
    sx[..., 3] = u1 * tau_xx + u2 * tau_xy + kap * e_x
    sy = np.zeros_like(v)
    sy[..., 1] = tau_xy
    sy[..., 2] = tau_yy
    sy[..., 3] = u1 * tau_xy + u2 * tau_yy + kap * e_y
    return (sx, sy)


# ---------------------------------------------------------------------------
# exterior states for weakly imposed boundary conditions
# ---------------------------------------------------------------------------

def mirror_state(u, n):
    """Reflect the normal velocity: u+ = u - 2 (m . n) n."""
    u = np.asarray(u, dtype=float)
    n = np.asarray(n, dtype=float)
    mom = u[..., 1:-1]
    mn = _dot(mom, n)
    out = u.copy()
    out[..., 1:-1] = mom - 2.0 * mn[..., None] * n
    return out


def wall_riemann_state(u, n, gas: GasParams, pfloor: float = 1e-14):
    """Exterior state enforcing u.n = 0 through the exact wall pressure.

    The star pressure of the half-Riemann problem against a wall: a shock
    relation when the flow runs into the wall (u.n > 0), an isentropic
    rarefaction otherwise. The exterior state mirrors the velocity and
    carries the star pressure so the numerical flux sees p* at the wall.
    """
    u = np.asarray(u, dtype=float)
    n = np.asarray(n, dtype=float)
    g = gas.gamma
    rho = u[..., 0]
    p = np.maximum(pressure(u, gas), pfloor)
    un = _dot(u[..., 1:-1], n) / rho
    c = np.sqrt(g * p / rho)

    A = 2.0 / ((g + 1.0) * rho)
    B = (g - 1.0) / (g + 1.0) * p
    disc = (2.0 * A * p + un ** 2) ** 2 - 4.0 * A * (A * p ** 2 - un ** 2 * B)
    p_shock = ((2.0 * A * p + un ** 2) + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * A)
    base = np.maximum(1.0 + (g - 1.0) * un / (2.0 * c), pfloor)
    p_rare = p * base ** (2.0 * g / (g - 1.0))
    pstar = np.where(un > 0.0, p_shock, p_rare)

    out = mirror_state(u, n)
    # replace the pressure, keeping density and tangential momentum; the
    # floor scales with the kinetic energy so the reconstructed internal
    # energy survives the E = rhoe + kin roundoff at near-vacuum states
    mom = out[..., 1:-1]
    kin = 0.5 * _dot(mom, mom) / rho
    rhoe_new = np.maximum(pstar / (g - 1.0), pfloor + 1e-13 * kin)
    out[..., -1] = rhoe_new + kin
    return out


def noslip_state(u):
    """Adiabatic no-slip exterior state: full velocity reversal."""
    u = np.asarray(u, dtype=float)
    out = u.copy()
    out[..., 1:-1] = -out[..., 1:-1]
    return out
