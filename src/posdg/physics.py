"""Compressible-flow state algebra.

Conserved states are component first: (nvar, ...), with the components
(rho, m_x, E) in one dimension and (rho, m_x, m_y, E) in two, each one
contiguous block of the solver's node (nvar, Np, K), face (nvar, n_slots)
and pair (nvar, npairs, K) arrays. Directions ``n`` and velocities are
(dim, ...); every kernel broadcasts over the trailing axes. The states
that enter and leave the solver keep the variable index last, (..., nvar):
:func:`internal_energy`, :func:`pressure`, :func:`entropy`,
:func:`is_admissible` and the conversions are ``moveaxis`` adapters over
the component-first ``_cf`` kernels, for the edges alone: the ``cli``
writers, ``cases``, the tests and perfbench. ``timestepping`` calls none.

The entropy pair used throughout is eta(u) = -rho s with s = log(p / rho^gamma),
whose gradient gives the entropy variables

    v = (gamma + 1 - s - rho e_int / (rho e), m / (rho e), -rho / (rho e))

with rho e = E - |m|^2 / (2 rho) the internal energy density. The matching
flux potential is psi_k = (gamma - 1) rho u_k.

Sums over the components of momentum, velocity or a direction are written
out term by term (``_dot``), never reduced over the short variable axis:
these kernels run at every node and pair of every stage, and a reduction
over an axis of length 1 or 2 costs several times the arithmetic it does.
The flux kernels are directional: :func:`normal_flux` evaluates the
inviscid flux sum_k n_k f_k along the direction of a pair or slot end (the
low-order scheme's one flux table per stage), :func:`ec_fluxes_prims` the
two-point flux along the direction of a pair, and
:func:`davis_wavespeed` and :func:`zhang_beta` the wavespeeds along an
end's direction. :func:`zhang_beta` reads the viscous fluxes through the
end's normal viscous flux sigma . n alone, the one the low-order end table
subtracts from f . n: its momentum rows are tau . n, and with them it
forms q . n. The two-point flux reads its states through the node
table of :func:`ec_prims`, one (dim + 3, ...) array with the rows

    [rho, 2 beta, v_1 / 2 .. v_dim / 2, |v|^2 / 4],   beta = rho / (2 p),

so a pair end is one gather of it, and the two arguments of the
logarithmic means, rho and 2 beta = rho / p, are its first two rows: one
:func:`log_mean` over that (2, ...) block forms both. The factors are
powers of two, which scale a double exactly, so the sum of two table
entries holds the arithmetic mean of v, four times that of beta and half
that of |v|^2 bit for bit, and the two-point flux reads them from one sum
L + R without rescaling it.

The solver forms the internal energy rho e and the pressure p of its
stage states once per stage, at the nodes (the node table of
:meth:`posdg.timestepping.Stepper.prepare`). The kernels that need them
take them as arguments, as :func:`normal_flux` and :func:`sound_speed`
take p: :func:`zhang_beta` (rho e and p), :func:`ec_prims` (p),
:func:`entropy_vars_cf` (rho e and p) and :func:`wall_riemann_state`
(p). Each forms them from its states when they are not given, by the
same operations, so either path gives the same values bit for bit. The
workspace
kernels (``log_mean``, ``normal_flux``, ``ec_fluxes_prims``,
``ec_fluxes``, ``davis_wavespeed``, ``zhang_beta``) take their caller's
:class:`~posdg.workspace.Workspace`, the one a ``Stepper`` owns, and
write every intermediate into its buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "ec_prims",
    "ec_fluxes_prims",
    "ec_fluxes",
    "sound_speed",
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

    ``mu`` is the dynamic viscosity in the nondimensional momentum
    equation; a case given by a Reynolds number Re sets mu = 1 / Re.
    """

    gamma: float = 1.4
    mu: float = 0.0
    Pr: float = 0.75

    @property
    def viscous(self) -> bool:
        return self.mu != 0.0


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


def pressure_cf(u, gas: GasParams, out=None, tmp=None):
    """p = (gamma - 1) rho e; into ``out`` when given, as ``_dot``."""
    return np.multiply(gas.gamma - 1.0, internal_energy_cf(u, out, tmp),
                       out=out)


def is_admissible_cf(u):
    return (u[0] > 0.0) & (internal_energy_cf(u) > 0.0)


def entropy_cf(u, gas: GasParams):
    """eta(u) = -rho log(p / rho^gamma)."""
    rho = u[0]
    return -rho * (np.log(pressure_cf(u, gas)) - gas.gamma * np.log(rho))


def entropy_vars_cf(u, gas: GasParams, out=None, rhoe=None, p=None):
    """The entropy variables v of ``u`` (see the module doc), into ``out``
    when given. ``rhoe`` and ``p`` are the internal energy and the pressure
    of ``u``, each formed here when not given."""
    rho, mom, E = _split(u)
    if rhoe is None:
        rhoe = internal_energy_cf(u)
    if p is None:
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


def log_mean(a, b, ws):
    """Logarithmic mean (a - b) / log(a / b) of positive a and b.

    One formula everywhere,

        L = d / log1p(d / min(a, b)),   d = max(|a - b|, min(a, b) 2^-60),

    in which a and b enter only through |a - b| and min(a, b), so
    log_mean(a, b) equals log_mean(b, a) bit for bit. The quotient handed
    to log1p is formed from the exact difference (Sterbenz) wherever a and
    b lie within a factor of two, so no series and no switch between forms
    is needed near a = b: against a long-double reference over ratios from
    1 + 2^-52 to 1e10 the largest relative error is about 3e-16.

    The floor on d needs no mask. Where a != b, |a - b| is at least an ulp
    of min(a, b), more than min(a, b) 2^-60, so the floor changes nothing.
    Where a = b, d = min(a, b) 2^-60 exactly, log1p(2^-60) = 2^-60, and
    L = min(a, b) exactly. Both hold for inputs of at least 2^-962 (about
    2e-290), where min(a, b) 2^-60 is a normal number; below that, the
    floor rounds, and a = b gives min(a, b) to within an ulp, or NaN once
    the floor underflows to zero (inputs below about 2^-1014). The result
    is taken from the caller's frame of the workspace ``ws``, the
    temporaries from a frame of their own.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.minimum(a, b, out=ws.take(shape))
    with ws.frame():
        d = np.subtract(a, b, out=ws.take(shape))
        np.abs(d, out=d)
        x = np.multiply(out, 2.0 ** -60, out=ws.take(shape))
        np.maximum(d, x, out=d)
        np.divide(d, out, out=x)
        np.log1p(x, out=x)
        np.divide(d, x, out=out)
    return out


def normal_flux(u, n, gas: GasParams, p=None, out=None, *, ws):
    """The inviscid flux along ``n``, sum_k n_k f_k(u), one (nvar, ...)
    array; ``n`` is (dim, ...) and need not be a unit vector.

    ``p`` is the pressure of ``u`` (:func:`pressure_cf`), formed here when
    not given. The flux is written into ``out`` when given, else into a
    fresh array; the temporaries come from a frame of the workspace
    ``ws``. n enters only through the sum m . n and the products p n_j, so
    the flux is odd in n bit for bit: normal_flux(u, -n) =
    -normal_flux(u, n).
    """
    n = np.asarray(n)
    rho, mom, E = _split(u)
    shape = np.broadcast_shapes(rho.shape, n.shape[1:])
    f = np.empty((len(u),) + shape) if out is None else out
    with ws.frame():
        t = ws.take(shape)
        if p is None:
            p = pressure_cf(u, gas, ws.take(rho.shape), ws.take(rho.shape))
        mn = _dot(mom, n, f[0, ...], t)
        un = np.divide(mn, rho, out=ws.take(shape))
        for j in range(len(mom)):
            fj = np.multiply(mom[j], un, out=f[1 + j, ...])
            fj += np.multiply(p, n[j], out=t)
        fE = np.add(E, p, out=f[-1, ...])
        fE *= un
    return f


def ec_prims(u, gas: GasParams, p=None, out=None):
    """The node table of the two-point flux, one (dim + 3, ...) array.

    Its rows are [rho, rho / p, v / 2, |v|^2 / 4], with the velocity v
    taking dim rows (see the module doc): rho / p = 2 beta, beta = rho /
    (2p), and each factor a power of two. Exposed separately so
    pairwise flux evaluations over many pairs drawn from few distinct
    states (the flux-differencing volume term) can form it once per state
    and gather it with one take per pair end. ``p`` is the pressure of
    ``u`` (:func:`pressure_cf`), formed here when not given; the table is
    written into ``out`` when given, else into a fresh array.
    """
    u = np.asarray(u, dtype=float)
    rho, mom, _ = _split(u)
    dim = len(mom)
    tab = np.empty((dim + 3,) + rho.shape) if out is None else out
    tab[0] = rho
    np.divide(rho, pressure_cf(u, gas) if p is None else p, out=tab[1, ...])
    vel = np.divide(mom, rho, out=tab[2:-1])
    vel *= 0.5
    _dot(vel, vel, tab[-1, ...])
    return tab


def ec_fluxes_prims(primsL, primsR, n, gas: GasParams, ws, out=None):
    """The two-point flux along ``n``, sum_k n_k f_kS, from two
    :func:`ec_prims` tables.

    f_kS is the entropy-conservative, kinetic-energy-preserving flux, built
    from arithmetic means of velocity and density, the logarithmic mean of
    density and of beta = rho / (2p). Along n it is the flux of one
    direction with the mean velocity v_a . n in place of a component:

        F_rho = rho_ln (v_a . n),  F_m = v_a F_rho + p_a n,
        F_E = h F_rho + v_a . F_m,

    and with n a unit vector e_k it equals f_kS bit for bit. Both
    logarithmic means are one :func:`log_mean` over rows [rho, 2 beta] of
    the tables, and the arithmetic means come from one sum L + R of the
    tables: its rows are 2 rho_avg, 4 beta_avg, v_a and |v|^2_avg / 2, so
    p_a = rho_avg / (2 beta_avg) is the quotient of its first two, and
    log_mean(2 beta_L, 2 beta_R) = 2 beta_ln exactly gives h = 1 /
    ((gamma - 1) 2 beta_ln) - |v|^2_avg / 2. ``n`` is (dim, ...) and
    broadcasts against the states. The flux is written into ``out`` (nvar,
    ...), by default taken from the caller's frame of the workspace
    ``ws``; the temporaries come from a frame of their own.
    """
    g = gas.gamma
    dim = len(primsL) - 3
    shape = np.broadcast_shapes(primsL.shape[1:], primsR.shape[1:],
                                np.shape(n)[1:])
    if out is None:
        out = ws.take((dim + 2,) + shape)
    with ws.frame():
        take = ws.take
        ln = log_mean(primsL[:2], primsR[:2], ws)
        rho_ln, h = ln[0, ...], ln[1, ...]
        # the end sums L + R, row by row into dim + 2 rows: p_a = rho_avg /
        # (2 beta_avg) in row 0, the |v|^2 sum in row 1, taken from h as
        # soon as it is formed, and v_a in the rows after
        s = take((dim + 2,) + np.broadcast_shapes(primsL.shape[1:],
                                                  primsR.shape[1:]))
        p_a = np.add(primsL[0], primsR[0], out=s[0, ...])
        np.divide(p_a, np.add(primsL[1], primsR[1], out=s[1, ...]), out=p_a)
        # h = 1 / ((gamma - 1) 2 beta_ln) - |v|^2_avg / 2
        np.multiply(g - 1.0, h, out=h)
        np.divide(1.0, h, out=h)
        np.subtract(h, np.add(primsL[-1], primsR[-1], out=s[1, ...]), out=h)
        vel_a = np.add(primsL[2:-1], primsR[2:-1], out=s[2:])

        # out[c, ...] stays an array view when the states are scalars; row
        # 1 of the sums, used up, holds the products
        t = s[1, ...] if s.shape[1:] == shape else take(shape)
        f0 = _dot(vel_a, n, out[0, ...], t)
        f0 *= rho_ln
        for j in range(dim):
            fj = np.multiply(vel_a[j], f0, out=out[1 + j, ...])
            fj += np.multiply(p_a, n[j], out=t)
        fE = np.multiply(h, f0, out=out[-1, ...])
        for j in range(dim):
            fE += np.multiply(vel_a[j], out[1 + j], out=t)
    return out


def ec_fluxes(uL, uR, n, gas: GasParams, ws):
    """:func:`ec_fluxes_prims` of two sets of states, along ``n``, in the
    workspace ``ws``."""
    return ec_fluxes_prims(ec_prims(uL, gas), ec_prims(uR, gas), n, gas, ws)


def sound_speed(u, gas: GasParams, out=None, tmp=None, p=None):
    """c = sqrt(gamma p / rho), with p = (gamma - 1) rho e; into ``out``
    when given, as ``_dot``. ``p`` is the pressure of ``u``
    (:func:`pressure_cf`), formed here when not given."""
    if p is None:
        p = pressure_cf(u, gas, out, tmp)
    c = np.multiply(gas.gamma, p, out=out)
    np.divide(c, u[0], out=c)
    return np.sqrt(c, out=c)


def davis_wavespeed(u, n, gas: GasParams, ws, c=None, mn=None):
    """The one-sided speed |u . n| + c for a unit normal ``n``.

    ``c`` is the sound speed of ``u`` (:func:`sound_speed`) and ``mn`` its
    normal momentum m . n, the mass row of :func:`normal_flux` along n;
    each is formed here when not given. The result is taken from the
    caller's frame of the workspace ``ws``, the temporaries from a frame of
    their own.
    """
    n = np.asarray(n)
    rho, mom, _ = _split(u)
    out = ws.take(np.broadcast_shapes(n.shape[1:], rho.shape))
    with ws.frame():
        if c is None:
            c = sound_speed(u, gas, ws.take(rho.shape), ws.take(rho.shape))
        if mn is None:
            mn = _dot(mom, n, out, ws.take(out.shape))
        np.divide(mn, rho, out=out)
        np.abs(out, out=out)
        out += c
    return out


def zhang_beta(u, sn, n, gas: GasParams, eps0: float = 1e-14, *,
               rhoe=None, p=None, ws):
    """Maximum wavespeed bound for first-order viscous bar states.

    ``sn`` is the normal viscous flux sigma . n = sum_k n_k sigma_k of the
    states along ``n`` (None for inviscid states), (nvar, ...) like ``u``;
    ``n`` is a direction vector (not necessarily unit). The bound
    guarantees positivity of intermediate states of the viscous Riemann
    problem, and reads the viscous fluxes only through sigma . n (Zhang,
    J. Comput. Phys. 2017): the stress along n, tau . n, is its momentum
    rows, and the heat flux along n is

        q . n = u . (tau . n) - (sigma . n)_E.

    Its mass row, zero for every viscous flux, is not read.

    It is even in ``n`` bit for bit: n enters only through products n_k x,
    whose sums change sign exactly with n (sigma . n among them), and
    these reach the result only through |.| or a square. ``rhoe`` and
    ``p`` are the internal energy and the pressure of ``u``, each formed
    here when not given. For an inviscid
    state (``sn`` None) and a unit ``n`` it is eps0 + |u.n| +
    sqrt((gamma - 1) / (2 gamma)) c, below the Davis speed |u.n| + c
    whenever c exceeds about 3.5 eps0, so the low-order scheme does not
    evaluate it for inviscid gases (see :mod:`posdg.rhs_low`). The result
    is taken from the caller's frame of the workspace ``ws``, the
    temporaries from a frame of their own.
    """
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
        if rhoe is None:
            rhoe = internal_energy_cf(u, take(ushape), t)
        if p is None:
            p = np.multiply(gas.gamma - 1.0, rhoe, out=take(ushape))
        # eps0 + |u.n|
        np.abs(_dot(vel, n, out, a), out=out)
        np.add(eps0, out, out=out)
        # 2 rho^2 e = 2 rho (rho e), with e the specific internal energy
        den = np.multiply(2.0, rho, out=take(ushape))
        den *= rhoe
        if sn is None:
            sn = np.zeros((dim + 2,) + shape)

        # tau . n is the momentum part of sigma . n, and the heat flux
        # q . n = u . (tau . n) - (sigma . n)_E
        tau_n = sn[1:-1]
        qn = _dot(vel, tau_n, take(shape), a)
        qn -= sn[-1]
        # |tau.n - p n|^2
        visc2, q = b, a
        for j in range(dim):
            vj = np.multiply(p, n[j], out=q)
            np.subtract(tau_n[j], vj, out=vj)
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

    ``thetas`` holds one (nvar, ...) gradient per direction, as a sequence
    or as one (dim, nvar, ...) array; the fluxes are written into ``out``,
    one (dim, nvar, ...) array, when given, and returned as a tuple of its
    directions. Stokes hypothesis (bulk viscosity zero) and Fourier heat
    conduction with kappa = gamma mu / Pr in terms of specific
    internal energy: sigma_k = (0, tau_k, u . tau_k + kappa de/dx_k), with
    the stress tau_kj = mu (du_j/dx_k + du_k/dx_j) off the diagonal and
    mu (4/3 du_k/dx_k - 2/3 sum_{m != k} du_m/dx_m) on it.

    The mass row of every sigma_k is zero; it is written here, and the
    solver's consumers of sigma (the end table of
    :class:`posdg.rhs_low.LowOrderRHS` and the viscous pair term of
    :class:`posdg.rhs_high.HighOrderRHS`) never read it. The velocity
    gradients du_j/dx_k and the work terms u_j tau_kj of the energy rows
    are each formed for every (k, j) at once, broadcast over the two
    direction axes; the stress is formed entry by entry, its off-diagonal
    entry once (tau_10 = tau_01 bit for bit). Its temporaries are
    node-sized (tens of KB on the benchmark meshes), which the heap serves
    without page faults. Fresh arrays and 64-byte aligned workspace buffers
    measure the same here: on daru's LDG inputs (N = 3, K = 8), the call
    took 0.095-0.106 ms with fresh temporaries and 0.099-0.104 ms with
    workspace ones (the minimum of 300 calls, in three rounds).
    """
    v = np.asarray(v, dtype=float)
    th = np.asarray(thetas, dtype=float)
    dim = len(v) - 2
    mu = gas.mu
    kap = gas.gamma * mu / gas.Pr
    shape = v.shape[1:]
    out = np.empty((dim,) + v.shape) if out is None else out
    tau = out[:, 1:-1]              # tau[k, j], row j of sigma_k's momentum
    vlast = v[-1]
    vl2 = vlast * vlast
    vel = np.negative(v[1:-1])
    vel /= vlast
    # grad[k, j] = du_j/dx_k = (v_j theta_k,E - v_E theta_k,j) / v_E^2
    grad = v[1:-1] * th[:, -1:]
    t = vlast * th[:, 1:-1]
    grad -= t
    grad /= vl2
    # the stress is symmetric: its off-diagonal entry is formed once, and
    # tau_10 = tau_01 bit for bit
    if dim == 2:
        off = np.add(grad[0, 1], grad[1, 0], out=tau[0, 1, ...])
        off *= mu
        tau[1, 0] = off
    # the diagonal du_k/dx_k, a strided view of the flat (k, j) axes; the
    # sum over m != k is the one other direction in two dimensions
    diag = grad.reshape((dim * dim,) + shape)[::dim + 1]
    d = (4.0 / 3.0) * diag
    if dim == 2:
        d -= np.multiply(2.0 / 3.0, diag[::-1], out=t[0])
    for k in range(dim):
        np.multiply(mu, d[k], out=tau[k, k, ...])
    out[:, 0] = 0.0
    # u . tau_k + kappa theta_k,E / v_E^2, the sum in index order
    ut = np.multiply(vel, tau, out=t)
    e = out[:, -1]
    e[...] = ut[:, 0]
    for j in range(1, dim):
        e += ut[:, j]
    q = th[:, -1] / vl2
    q *= kap
    e += q
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


# the floor of wall_riemann_state's pressure and rarefaction base
PFLOOR = 1e-14


def wall_riemann_state(u, n, gas: GasParams, p=None):
    """Exterior state enforcing u.n = 0 through the exact wall pressure.

    The star pressure of the half-Riemann problem against a wall: a shock
    relation when the flow runs into the wall (u.n > 0), an isentropic
    rarefaction otherwise. The exterior state mirrors the velocity and
    carries the star pressure so the numerical flux sees p* at the wall.
    ``p`` is the pressure of ``u`` (:func:`pressure_cf`), formed here when
    not given.
    """
    u = np.asarray(u, dtype=float)
    n = np.asarray(n, dtype=float)
    g = gas.gamma
    rho = u[0]
    p = np.maximum(pressure_cf(u, gas) if p is None else p, PFLOOR)
    un = _dot(u[1:-1], n) / rho
    c = np.sqrt(g * p / rho)

    A = 2.0 / ((g + 1.0) * rho)
    B = (g - 1.0) / (g + 1.0) * p
    disc = (2.0 * A * p + un ** 2) ** 2 - 4.0 * A * (A * p ** 2 - un ** 2 * B)
    p_shock = ((2.0 * A * p + un ** 2) + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * A)
    base = np.maximum(1.0 + (g - 1.0) * un / (2.0 * c), PFLOOR)
    p_rare = p * base ** (2.0 * g / (g - 1.0))
    pstar = np.where(un > 0.0, p_shock, p_rare)

    out = mirror_state(u, n)
    # replace the pressure, keeping density and tangential momentum; the
    # floor scales with the kinetic energy so the reconstructed internal
    # energy survives the E = rhoe + kin roundoff at near-vacuum states
    mom = out[1:-1]
    kin = 0.5 * _dot(mom, mom) / rho
    rhoe_new = np.maximum(pstar / (g - 1.0), PFLOOR + 1e-13 * kin)
    out[-1] = rhoe_new + kin
    return out


def noslip_state(u):
    """Adiabatic no-slip exterior state: full velocity reversal."""
    out = np.array(u, dtype=float)
    out[1:-1] = -out[1:-1]
    return out
