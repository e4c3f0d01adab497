"""Compressible-flow state algebra.

Conserved states are component first: (nvar, ...), with the components
(rho, m_x, E) in one dimension and (rho, m_x, m_y, E) in two, each one
contiguous block of the solver's node (nvar, Np, K), face (nvar, n_slots)
and pair (nvar, npairs, K) arrays. Directions ``n`` and velocities are
(dim, ...); every kernel broadcasts over the trailing axes. The states
that enter and leave the solver keep the variable index last, (..., nvar):
the names the edges call (:func:`internal_energy`, :func:`pressure`,
:func:`entropy`, :func:`is_admissible` and the conversions) are one-line
``moveaxis`` adapters over the component-first kernels of the same name
with a ``_cf`` suffix.

The entropy pair used throughout is eta(u) = -rho s with s = log(p / rho^gamma),
whose gradient gives the entropy variables

    v = (gamma + 1 - s - rho e_int / (rho e), m / (rho e), -rho / (rho e))

with rho e = E - |m|^2 / (2 rho) the internal energy density. The matching
flux potential is psi_k = (gamma - 1) rho u_k.

Sums over the components of momentum, velocity or a direction are written
out term by term (``_dot``), never reduced over the short variable axis:
these kernels run at every node and pair of every stage, and a reduction
over an axis of length 1 or 2 costs several times the arithmetic it does.
The flux kernels are directional: :func:`normal_flux` and
:func:`ec_fluxes_prims` evaluate the one flux sum_k n_k f_k along the
direction of a slot or pair. The workspace kernels (``log_mean``, ``ec_fluxes_prims``, ``davis_wavespeed``,
``zhang_beta``) take an optional :class:`~posdg.workspace.Workspace` and
then write every intermediate into its buffers; without one they return
fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .workspace import Workspace

__all__ = [
    "GasParams",
    "primitive_to_conserved",
    "primitive_to_conserved_cf",
    "conserved_to_primitive",
    "pressure",
    "pressure_cf",
    "internal_energy",
    "internal_energy_cf",
    "is_admissible",
    "entropy",
    "entropy_vars",
    "entropy_vars_cf",
    "entropy_to_conserved",
    "log_mean",
    "normal_flux",
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
    return u[0], u[1:-1], u[-1]


def _dot(a, b, out=None, tmp=None):
    """a[0] * b[0] + a[1] * b[1] + ..., in index order.

    Bitwise equal to ``np.sum(a * b, axis=0)`` for the 1-3 components used
    here; ``a`` and ``b`` broadcast against each other. Written into
    ``out`` when given, with ``tmp`` (fresh by default) as scratch.
    """
    out = np.multiply(a[0], b[0], out=out)
    for k in range(1, len(a)):
        out += np.multiply(a[k], b[k], out=tmp)
    return out


def internal_energy_cf(u, out=None, tmp=None):
    """rho e = E - |m|^2 / (2 rho); into ``out`` when given, as ``_dot``."""
    rho, mom, E = _split(u)
    kin = _dot(mom, mom, out, tmp)
    kin = np.multiply(0.5, kin, out=out)
    kin = np.divide(kin, rho, out=out)
    return np.subtract(E, kin, out=out)


def pressure_cf(u, gas: GasParams):
    return (gas.gamma - 1.0) * internal_energy_cf(u)


def is_admissible_cf(u, eps: float = 0.0):
    return (u[0] > eps) & (internal_energy_cf(u) > eps)


def entropy_cf(u, gas: GasParams):
    """eta(u) = -rho log(p / rho^gamma)."""
    rho = u[0]
    return -rho * (np.log(pressure_cf(u, gas)) - gas.gamma * np.log(rho))


def entropy_vars_cf(u, gas: GasParams, out=None):
    rho, mom, E = _split(u)
    rhoe = internal_energy_cf(u)
    p = (gas.gamma - 1.0) * rhoe
    s = np.log(p) - gas.gamma * np.log(rho)
    v = np.empty_like(u) if out is None else out
    v[0] = (gas.gamma + 1.0 - s) - E / rhoe
    v[1:-1] = mom / rhoe
    v[-1] = -rho / rhoe
    return v


def entropy_to_conserved_cf(v, gas: GasParams):
    g = gas.gamma
    vel = v[1:-1]
    vlast = v[-1]
    vsq = _dot(vel, vel)
    s = g - v[0] + 0.5 * vsq / vlast
    rhoe = ((g - 1.0) / (-vlast) ** g) ** (1.0 / (g - 1.0)) * np.exp(-s / (g - 1.0))
    u = np.empty_like(v)
    u[0] = -rhoe * vlast
    u[1:-1] = rhoe * vel
    u[-1] = rhoe * (1.0 - 0.5 * vsq / vlast)
    return u


def primitive_to_conserved_cf(prim, gas: GasParams):
    """(rho, velocities..., p) -> conserved."""
    rho, vel, p = _split(prim)
    u = np.empty_like(prim)
    u[0] = rho
    u[1:-1] = rho * vel
    u[-1] = p / (gas.gamma - 1.0) + 0.5 * rho * _dot(vel, vel)
    return u


def conserved_to_primitive_cf(u, gas: GasParams):
    rho, mom, _ = _split(u)
    prim = np.empty_like(u)
    prim[0] = rho
    prim[1:-1] = mom / rho
    prim[-1] = pressure_cf(u, gas)
    return prim


def _variable_last(kernel, state=False):
    """``kernel`` for variable-last states (..., nvar); a ``state`` result
    gets its variable index moved last too."""
    def adapter(u, *args, **kwargs):
        out = kernel(np.moveaxis(np.asarray(u, dtype=float), -1, 0), *args,
                     **kwargs)
        return np.moveaxis(out, 0, -1) if state else out
    adapter.__name__ = adapter.__qualname__ = kernel.__name__[:-3]
    adapter.__doc__ = f"{kernel.__name__} of a variable-last state."
    return adapter


internal_energy = _variable_last(internal_energy_cf)
pressure = _variable_last(pressure_cf)
is_admissible = _variable_last(is_admissible_cf)
entropy = _variable_last(entropy_cf)
entropy_vars = _variable_last(entropy_vars_cf, state=True)
entropy_to_conserved = _variable_last(entropy_to_conserved_cf, state=True)
primitive_to_conserved = _variable_last(primitive_to_conserved_cf, state=True)
conserved_to_primitive = _variable_last(conserved_to_primitive_cf, state=True)


def log_mean(a, b, ws=None):
    """Logarithmic mean (a - b) / log(a / b), series expansion near a = b.

    The series (a + b) / (2 (1 + zeta/3 + zeta^2/5 + zeta^3/7)), with
    zeta = ((a - b)/(a + b))^2, is formed everywhere, its polynomial with
    doubled coefficients (scaling by 2 is exact). Where zeta is not below
    1e-4 it is overwritten by the exact quotient, evaluated on those
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
        np.divide(zeta, 3.5, out=out)
        out += 2.0 / 5.0
        out *= zeta
        out += 2.0 / 3.0
        out *= zeta
        out += 2.0
        np.divide(sa, out, out=out)
        far = np.flatnonzero(np.greater_equal(zeta, 1e-4,
                                              out=ws.take(shape, bool)))
        if far.size:
            ratio = (np.broadcast_to(a, shape).flat[far]
                     / np.broadcast_to(b, shape).flat[far])
            out.reshape(-1)[far] = da.reshape(-1)[far] / np.log(ratio)
    return out


def normal_flux(u, n, gas: GasParams):
    """The inviscid flux along ``n``, sum_k n_k f_k(u), one (nvar, ...)
    array; ``n`` is (dim, ...) and need not be a unit vector."""
    rho, mom, E = _split(u)
    p = pressure_cf(u, gas)
    mn = _dot(mom, n)
    un = mn / rho
    f = np.empty((len(u),) + un.shape)
    f[0] = mn
    for j in range(len(mom)):
        f[1 + j] = mom[j] * un + p * n[j]
    f[-1] = (E + p) * un
    return f


def euler_flux(u, gas: GasParams, out=None):
    """Physical inviscid fluxes f_k, one (nvar, ...) array per direction
    (written into the arrays ``out`` when given), for the kernels that need
    every direction at a node; equal bit for bit to :func:`normal_flux`
    along each unit vector, at half its cost."""
    rho, mom, E = _split(u)
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


def ec_prims(u, gas: GasParams):
    """(rho, vel, beta, vsq) entering the two-point flux, per state.

    ``vel`` is (dim, ...). Exposed separately so pairwise flux evaluations
    over many pairs drawn from few distinct states (the flux-differencing
    volume term) can compute these once per state and gather.
    """
    u = np.asarray(u, dtype=float)
    rho, mom, _ = _split(u)
    vel = mom / rho
    beta = rho / (2.0 * pressure_cf(u, gas))
    return rho, vel, beta, _dot(vel, vel)


def ec_fluxes_prims(primsL, primsR, n, gas: GasParams, ws=None, out=None):
    """The two-point flux along ``n``, sum_k n_k f_kS, from ``ec_prims``.

    f_kS is the entropy-conservative, kinetic-energy-preserving flux, built
    from arithmetic means of velocity and density, the logarithmic mean of
    density and of beta = rho / (2p). Along n it is the flux of one
    direction with the mean velocity v_a . n in place of a component:

        F_rho = rho_ln (v_a . n),  F_m = v_a F_rho + p_a n,
        F_E = h F_rho + v_a . F_m,

    and with n a unit vector e_k it equals f_kS bit for bit. ``n`` is
    (dim, ...) and broadcasts against the states. The flux is written into
    ``out`` (nvar, ...), by default taken from the caller's frame of the
    workspace ``ws`` (a fresh one by default); the temporaries come from a
    frame of their own, so a caller that reuses its workspace allocates
    only the near-equal entries of :func:`log_mean` here.
    """
    ws = Workspace() if ws is None else ws
    rhoL, velL, betaL, vsqL = primsL
    rhoR, velR, betaR, vsqR = primsR
    g = gas.gamma
    dim = len(velL)
    shape = np.broadcast_shapes(rhoL.shape, rhoR.shape, np.shape(n)[1:])
    if out is None:
        out = ws.take((dim + 2,) + shape)
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

        # out[c, ...] stays an array view when the states are scalars
        f0 = _dot(vel_a, n, out[0, ...], t)
        f0 *= rho_ln
        for j in range(dim):
            fj = np.multiply(vel_a[j], f0, out=out[1 + j, ...])
            fj += np.multiply(p_a, n[j], out=t)
        fE = np.multiply(h, f0, out=out[-1, ...])
        for j in range(dim):
            fE += np.multiply(vel_a[j], out[1 + j], out=t)
    return out


def ec_fluxes(uL, uR, n, gas: GasParams):
    """:func:`ec_fluxes_prims` of two sets of states, along ``n``."""
    return ec_fluxes_prims(ec_prims(uL, gas), ec_prims(uR, gas), n, gas)


def davis_wavespeed(uL, uR, n, gas: GasParams, ws=None):
    """max(|u_L . n| + c_L, |u_R . n| + c_R) for a unit normal ``n``.

    With ``uR`` None, the one-sided speed |u_L . n| + c_L. The result is
    taken from the caller's frame of the workspace ``ws`` (a fresh one by
    default), the temporaries from a frame of their own.
    """
    ws = Workspace() if ws is None else ws
    n = np.asarray(n)
    ends = (uL,) if uR is None else (uL, uR)
    shape = np.broadcast_shapes(n.shape[1:], *(u.shape[1:] for u in ends))
    out = ws.take(shape)
    with ws.frame():
        tmp = ws.take(shape)
        for k, u in enumerate(ends):
            rho, mom, _ = _split(u)
            # c = sqrt(gamma p / rho), with p = (gamma - 1) rho e
            c = internal_energy_cf(u, ws.take(rho.shape), ws.take(rho.shape))
            np.multiply(gas.gamma - 1.0, c, out=c)
            np.multiply(gas.gamma, c, out=c)
            np.divide(c, rho, out=c)
            np.sqrt(c, out=c)
            lam = out if k == 0 else ws.take(shape)
            _dot(mom, n, lam, tmp)
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
    dim = len(u) - 2
    rho, mom, _ = _split(u)
    ushape = rho.shape
    shape = np.broadcast_shapes(ushape, n.shape[1:])
    out = ws.take(shape)
    with ws.frame():
        take = ws.take
        a, b = take(shape), take(shape)
        t = take(ushape)
        vel = np.divide(mom, rho, out=take(mom.shape))
        rhoe = internal_energy_cf(u, take(ushape), t)
        p = np.multiply(gas.gamma - 1.0, rhoe, out=take(ushape))
        # eps0 + |u.n|
        np.abs(_dot(vel, n, out, a), out=out)
        np.add(eps0, out, out=out)
        # 2 rho^2 e = 2 rho (rho e), with e the specific internal energy
        den = np.multiply(2.0, rho, out=take(ushape))
        den *= rhoe
        if sigma is None:
            sigma = (np.zeros_like(u),) * dim

        # tau_k (row k of the stress) is the momentum part of sigma_k, and
        # the heat flux q_k = u . tau_k - sigma_k[energy]
        tau = [s[1:-1] for s in sigma]
        qn, q = take(shape), take(shape)
        for k in range(dim):
            qk = _dot(vel, tau[k], take(ushape), t)
            np.subtract(qk, sigma[k][-1], out=qk)
            np.multiply(qk, n[k], out=qn if k == 0 else q)
            if k:
                qn += q
        # |tau.n - p n|^2, with (tau.n)_j = sum_k tau_kj n_k
        visc2 = b
        for j in range(dim):
            vj = np.multiply(tau[0][j], n[0], out=a)
            for k in range(1, dim):
                vj += np.multiply(tau[k][j], n[k], out=q)
            vj -= np.multiply(p, n[j], out=q)
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


def viscous_sigma(v, thetas, gas: GasParams, out=None):
    """Viscous fluxes sigma_k = K_k(v) theta from entropy variables and
    their gradients, evaluated matrix-free.

    ``thetas`` is a tuple of (nvar, ...) gradient arrays, one per direction;
    the fluxes are written into the arrays ``out`` when given. Stokes
    hypothesis (bulk viscosity zero) and Fourier heat conduction with
    kappa = gamma mu_eff / Pr in terms of specific internal energy:
    sigma_k = (0, tau_k, u . tau_k + kappa de/dx_k), with the stress
    tau_kj = mu (du_j/dx_k + du_k/dx_j) off the diagonal and
    mu (4/3 du_k/dx_k - 2/3 sum_{m != k} du_m/dx_m) on it.
    """
    v = np.asarray(v, dtype=float)
    dim = len(v) - 2
    mu = gas.mu_eff
    kap = gas.gamma * mu / gas.Pr
    vlast = v[-1]
    vl2 = vlast * vlast
    vel = -v[1:-1] / vlast
    # grad[k][j] = du_j/dx_k
    grad = [[(v[1 + j] * th[-1] - vlast * th[1 + j]) / vl2
             for j in range(dim)] for th in thetas]
    out = [np.empty_like(v) for _ in thetas] if out is None else out
    for k, s in enumerate(out):
        s[0] = 0.0
        rest = [grad[m][m] for m in range(dim) if m != k]
        rest = sum(rest[1:], rest[0]) if rest else 0.0
        s[1 + k] = mu * ((4.0 / 3.0) * grad[k][k] - (2.0 / 3.0) * rest)
        for j in range(k + 1, dim):
            s[1 + j] = out[j][1 + k] = mu * (grad[k][j] + grad[j][k])
    for s, th in zip(out, thetas):
        s[-1] = _dot(vel, s[1:-1]) + kap * (th[-1] / vl2)
    return tuple(out)


# ---------------------------------------------------------------------------
# exterior states for weakly imposed boundary conditions
# ---------------------------------------------------------------------------

def mirror_state(u, n):
    """Reflect the normal velocity: u+ = u - 2 (m . n) n."""
    u = np.asarray(u, dtype=float)
    n = np.asarray(n, dtype=float)
    mom = u[1:-1]
    mn = _dot(mom, n)
    out = u.copy()
    for j in range(len(mom)):
        out[1 + j] = mom[j] - 2.0 * mn * n[j]
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
    rho = u[0]
    p = np.maximum(pressure_cf(u, gas), pfloor)
    un = _dot(u[1:-1], n) / rho
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
    mom = out[1:-1]
    kin = 0.5 * _dot(mom, mom) / rho
    rhoe_new = np.maximum(pstar / (g - 1.0), pfloor + 1e-13 * kin)
    out[-1] = rhoe_new + kin
    return out


def noslip_state(u):
    """Adiabatic no-slip exterior state: full velocity reversal."""
    out = np.array(u, dtype=float)
    out[1:-1] = -out[1:-1]
    return out
