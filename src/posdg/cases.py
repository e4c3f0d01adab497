"""Benchmark problem catalog.

Each case bundles everything a driver needs: domain, gas model, initial
condition, boundary conditions, final time, recommended CFL, and (when one
exists) the exact solution used for error norms. Cases whose parameters
depend on the mesh (the blast wave ties its hot-spot radius to the cell
size) resolve them through :meth:`CaseSpec.bind`.

Also provides the relative error norm used by the convergence drivers and
the numerical Schlieren transform used for shock visualization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .bc import BCSet, dirichlet, noslip, outflow, wall
from .mesh import Mesh, interval_mesh, rect_mesh
from .physics import GasParams, primitive_to_conserved

__all__ = [
    "CaseSpec",
    "CASES",
    "get_case",
    "leblanc",
    "viscous_shock",
    "sine_shock",
    "isentropic_vortex",
    "sedov",
    "dmr",
    "daru_tenaud",
    "error_norms",
    "schlieren",
]


@dataclass(frozen=True)
class CaseSpec:
    """A runnable benchmark configuration.

    ``ic`` maps node coordinates to conserved states; ``exact``, when
    present, does the same at an arbitrary time and doubles as Dirichlet
    boundary data. ``aspect`` gives elements per refinement unit in each
    direction, so ``build_mesh(K)`` reproduces the intended cell shape.
    """

    name: str
    dim: int
    domain: tuple
    gas: GasParams
    ic: object
    bcs: BCSet
    t_final: float
    cfl: float
    exact: object = None
    periodic: tuple = (False,)
    classify: object = None
    aspect: tuple = (1,)
    cfl_tri: float = None
    binder: object = None

    def build_mesh(self, K1D: int, N: int, elem: str = None) -> Mesh:
        if self.dim == 1:
            (a, b), = self.domain
            return interval_mesh(a, b, K1D, N, periodic=self.periodic[0],
                                 classify=self.classify)
        (ax, bx), (ay, by) = self.domain
        Kx = int(round(self.aspect[0] * K1D))
        Ky = int(round(self.aspect[1] * K1D))
        return rect_mesh(elem or "quad", (ax, bx, ay, by), Kx, Ky, N,
                         periodic=self.periodic, classify=self.classify)

    def bind(self, mesh: Mesh) -> "CaseSpec":
        """Resolve mesh-dependent parameters; identity for most cases."""
        if self.binder is None:
            return self
        return self.binder(self, mesh)

    def cfl_for(self, elem: str) -> float:
        if elem == "tri" and self.cfl_tri is not None:
            return self.cfl_tri
        return self.cfl


# ---------------------------------------------------------------------------
# Shock tube with a near-vacuum right state (Leblanc).

_LEB_RHO_SL = 5.40793353493162e-2
_LEB_RHO_SR = 3.99999806043000e-3
_LEB_P_S = 0.515577927650970e-3
_LEB_V_S = 0.621838671391735
_LEB_LAM1 = 0.495784895188979
_LEB_LAM3 = 0.829118362533470


def leblanc() -> CaseSpec:
    """Extreme shock tube: density ratio 1e3, internal-energy ratio 1e9.

    The exact solution is self-similar in (x - x0)/t with five regions:
    left state, rarefaction fan, two star states separated by the contact,
    and the right state behind the shock.
    """
    gas = GasParams(gamma=5.0 / 3.0)
    g = gas.gamma
    x0 = 0.33
    prim_l = np.array([1.0, 0.0, (g - 1.0) * 0.1])
    prim_r = np.array([1e-3, 0.0, (g - 1.0) * 1e-10])
    u_l = primitive_to_conserved(prim_l, gas)
    u_r = primitive_to_conserved(prim_r, gas)

    def exact(xy, t):
        x = np.asarray(xy)[..., 0]
        if t <= 0.0:
            return np.where((x < x0)[..., None], u_l, u_r)
        xi = (x - x0) / t
        a = 0.75 - 0.75 * xi
        conds = [xi <= -1.0 / 3.0, xi <= _LEB_LAM1, xi <= _LEB_V_S,
                 xi <= _LEB_LAM3]
        rho = np.select(conds, [prim_l[0], a ** 3, _LEB_RHO_SL, _LEB_RHO_SR],
                        default=prim_r[0])
        vel = np.select(conds, [0.0, 0.75 * (1.0 / 3.0 + xi), _LEB_V_S,
                                _LEB_V_S], default=0.0)
        p = np.select(conds, [prim_l[2], (1.0 / 15.0) * a ** 5, _LEB_P_S,
                              _LEB_P_S], default=prim_r[2])
        return primitive_to_conserved(np.stack([rho, vel, p], axis=-1), gas)

    return CaseSpec(
        name="leblanc", dim=1, domain=((0.0, 1.0),), gas=gas,
        ic=lambda xy: exact(xy, 0.0),
        bcs=BCSet({1: dirichlet(exact)}),
        t_final=2.0 / 3.0, cfl=0.5, exact=exact,
    )


# ---------------------------------------------------------------------------
# Traveling viscous shock (Becker's profile).


def viscous_shock(M0: float = 3.0, mu: float = 0.01, u_inf: float = 0.2,
                  dim: int = 1) -> CaseSpec:
    """Translating exact Navier-Stokes shock profile.

    The steady profile has constant mass flux m0 and constant total
    enthalpy (which requires Pr = 3/4); the velocity is given implicitly
    by a log relation and recovered per query point by bisection, which
    is robust arbitrarily close to the asymptotic states. ``dim=2``
    extrudes the profile in y with zero transverse velocity.
    """
    if M0 <= 1.0:
        raise ValueError("pre-shock Mach number must exceed 1")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    gas = GasParams(gamma=1.4, mu=mu, Pr=0.75)
    g = gas.gamma
    u_left, m0 = 1.0, 1.0
    u_right = (g - 1.0 + 2.0 / M0 ** 2) / (g + 1.0)
    u_mid = np.sqrt(u_left * u_right)
    kappa = g * gas.mu / gas.Pr
    coef = 2.0 * kappa / ((g + 1.0) * m0)
    c_l = u_left / (u_left - u_right)
    c_r = u_right / (u_left - u_right)

    def x_of_u(u):
        return coef * (c_l * np.log((u_left - u) / (u_left - u_mid))
                       - c_r * np.log((u - u_right) / (u_mid - u_right)))

    def profile(xi):
        xi = np.asarray(xi, dtype=float)
        lo = np.full(xi.shape, u_right)
        hi = np.full(xi.shape, u_left)
        # x(u) is strictly decreasing, so x(mid) > xi means u(xi) > mid.
        # Far from the shock the midpoint can round onto an asymptote,
        # where the log is infinite; the comparison still steers right.
        with np.errstate(divide="ignore"):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                above = x_of_u(mid) > xi
                lo = np.where(above, mid, lo)
                hi = np.where(above, hi, mid)
        return 0.5 * (lo + hi)

    def exact(xy, t):
        xi = np.asarray(xy)[..., 0] - u_inf * t
        u = profile(xi)
        rho = m0 / u
        e = (0.5 / g) * ((g + 1.0) / (g - 1.0) * u_mid ** 2 - u * u)
        vel = u_inf + u
        out = np.empty(xi.shape + (dim + 2,))
        out[..., 0] = rho
        out[..., 1] = rho * vel
        if dim == 2:
            out[..., 2] = 0.0
        out[..., -1] = rho * (e + 0.5 * vel * vel)
        return out

    if dim == 1:
        return CaseSpec(
            name="viscous-shock", dim=1, domain=((-1.0, 1.5),), gas=gas,
            ic=lambda xy: exact(xy, 0.0),
            bcs=BCSet({1: dirichlet(exact)}),
            t_final=1.0, cfl=0.5, exact=exact,
        )
    return CaseSpec(
        name="viscous-shock-2d", dim=2,
        domain=((-1.0, 1.5), (0.0, 1.25)), gas=gas,
        ic=lambda xy: exact(xy, 0.0),
        bcs=BCSet({1: dirichlet(exact)}),
        t_final=1.0, cfl=0.75, exact=exact,
        periodic=(False, False), aspect=(2, 1),
    )


# ---------------------------------------------------------------------------
# Shock running into a sinusoidal density field (Shu-Osher).


def sine_shock() -> CaseSpec:
    gas = GasParams(gamma=1.4)
    prim_l = np.array([3.857143, 2.629369, 10.3333])
    u_l = primitive_to_conserved(prim_l, gas)

    def ic(xy):
        x = np.asarray(xy)[..., 0]
        rho = 1.0 + 0.2 * np.sin(5.0 * x)
        prim = np.stack([rho, np.zeros_like(x), np.ones_like(x)], axis=-1)
        return np.where((x < -4.0)[..., None],
                        u_l, primitive_to_conserved(prim, gas))

    def classify(xy):
        return np.where(xy[:, 0] < 0.0, 1, 2)

    return CaseSpec(
        name="sine-shock", dim=1, domain=((-5.0, 5.0),), gas=gas,
        ic=ic,
        bcs=BCSet({1: dirichlet(lambda xy, t: np.broadcast_to(
            u_l, xy.shape[:-1] + (3,))), 2: outflow()}),
        t_final=1.8, cfl=0.5, classify=classify,
    )


# ---------------------------------------------------------------------------
# Advecting isentropic vortex; smooth but with a deep density core.


def isentropic_vortex(beta: float = 8.5) -> CaseSpec:
    """Vortex advecting at unit speed; exact solution of the Euler equations.

    At the default strength the density dips below 2.2e-4 at the core,
    which is enough to break unlimited high-order schemes.
    """
    gas = GasParams(gamma=1.4)
    g = gas.gamma
    x0, y0 = 9.0, 5.0
    cden = (g - 1.0) * beta ** 2 / (16.0 * g * np.pi ** 2)

    def exact(xy, t):
        xy = np.asarray(xy)
        dx = xy[..., 0] - x0 - t
        dy = xy[..., 1] - y0
        ex = np.exp(1.0 - (dx * dx + dy * dy))
        rho = (1.0 - cden * ex * ex) ** (1.0 / (g - 1.0))
        u = 1.0 - (beta / (2.0 * np.pi)) * ex * dy
        v = (beta / (2.0 * np.pi)) * ex * dx
        return primitive_to_conserved(np.stack([rho, u, v, rho ** g], -1),
                                      gas)

    return CaseSpec(
        name="vortex", dim=2, domain=((0.0, 20.0), (0.0, 10.0)), gas=gas,
        ic=lambda xy: exact(xy, 0.0),
        bcs=BCSet(),
        t_final=2.0, cfl=0.9, cfl_tri=0.5, exact=exact,
        periodic=(True, True), aspect=(2, 1),
    )


# ---------------------------------------------------------------------------
# Blast wave into a near-vacuum ambient pressure (Sedov).


def sedov(E0: float = 1.0, r0: float = None) -> CaseSpec:
    """Point blast: energy E0 deposited in a disc of radius r0.

    When ``r0`` is omitted it resolves to four cell widths at
    :meth:`CaseSpec.bind` time, keeping the deposit discretization-matched.
    """
    gas = GasParams(gamma=1.4)

    def make_ic(r0v):
        p_int = (gas.gamma - 1.0) * E0 / (np.pi * r0v ** 2)

        def ic(xy):
            xy = np.asarray(xy)
            r = np.hypot(xy[..., 0], xy[..., 1])
            p = np.where(r < r0v, p_int, 1e-5)
            z = np.zeros_like(p)
            prim = np.stack([np.ones_like(p), z, z, p], axis=-1)
            return primitive_to_conserved(prim, gas)

        return ic

    def unbound_ic(xy):
        raise RuntimeError("blast radius unresolved; bind the case to a mesh")

    def binder(case, mesh):
        # uniform square cells: both element shapes carry J = h^2 / 4
        h = 2.0 * np.sqrt(mesh.classes[0].J)
        return dataclasses.replace(case, ic=make_ic(4.0 * h), binder=None)

    return CaseSpec(
        name="sedov", dim=2, domain=((-1.5, 1.5), (-1.5, 1.5)), gas=gas,
        ic=make_ic(r0) if r0 is not None else unbound_ic,
        bcs=BCSet(),
        t_final=1.0, cfl=0.5,
        periodic=(True, True), aspect=(1, 1),
        binder=None if r0 is not None else binder,
    )


# ---------------------------------------------------------------------------
# Double Mach reflection: Mach-10 shock hitting a ramp-equivalent wall.

_DMR_S0 = (1.0 + np.sqrt(3.0) / 6.0) / np.sqrt(3.0)
_DMR_SPEED = 10.0 / np.cos(np.pi / 6.0)


def dmr() -> CaseSpec:
    """Oblique Mach-10 shock over a wall starting at x = 1/6.

    The shock line is y = sqrt(3) x - sqrt(3)/6, hitting the wall exactly
    at its leading edge. The top boundary prescribes the two states across
    the shock trace x = s(t); the remaining non-wall boundaries hold their
    initial far-field state.
    """
    gas = GasParams(gamma=1.4)
    u_l = primitive_to_conserved(np.array(
        [8.0, 8.25 * np.cos(np.pi / 6.0), -8.25 * np.sin(np.pi / 6.0),
         116.5]), gas)
    u_r = primitive_to_conserved(np.array([1.4, 0.0, 0.0, 1.0]), gas)

    def ic(xy):
        xy = np.asarray(xy)
        xi = xy[..., 1] - np.sqrt(3.0) * xy[..., 0] + np.sqrt(3.0) / 6.0
        return np.where((xi > 0.0)[..., None], u_l, u_r)

    def exterior(xy, t):
        xy = np.asarray(xy)
        x, y = xy[..., 0], xy[..., 1]
        s = _DMR_S0 + _DMR_SPEED * t
        post = (x <= 1e-12) | ((y <= 1e-12) & (x < 1.0 / 6.0)) \
            | ((y >= 1.0 - 1e-12) & (x < s))
        return np.where(post[..., None], u_l, u_r)

    def classify(xy):
        on_wall = (xy[:, 1] < 1e-12) & (xy[:, 0] >= 1.0 / 6.0)
        return np.where(on_wall, 1, 2)

    return CaseSpec(
        name="dmr", dim=2, domain=((0.0, 3.5), (0.0, 1.0)), gas=gas,
        ic=ic,
        bcs=BCSet({1: wall("riemann"), 2: dirichlet(exterior)}),
        t_final=0.2, cfl=0.5, classify=classify,
        periodic=(False, False), aspect=(3.5, 1),
    )


# ---------------------------------------------------------------------------
# Viscous 2D shock tube (Daru-Tenaud): shock / boundary-layer interaction.


def daru_tenaud(Re: float = 1000.0) -> CaseSpec:
    """Pressurized right half-chamber venting into the left half.

    Slip wall on top, adiabatic no-slip walls on the other three sides;
    the reflected shock interacts with the boundary layer it created.
    """
    gas = GasParams(gamma=1.4, mu=1.0 / Re, Pr=0.73)
    u_l = primitive_to_conserved(np.array([120.0, 0.0, 0.0, 120.0 / gas.gamma]),
                                 gas)
    u_r = primitive_to_conserved(np.array([1.2, 0.0, 0.0, 1.2 / gas.gamma]),
                                 gas)

    def ic(xy):
        x = np.asarray(xy)[..., 0]
        return np.where((x > 0.5)[..., None], u_l, u_r)

    def classify(xy):
        return np.where(xy[:, 1] > 0.5 - 1e-12, 1, 2)

    return CaseSpec(
        name="daru", dim=2, domain=((0.0, 1.0), (0.0, 0.5)), gas=gas,
        ic=ic,
        bcs=BCSet({1: wall("riemann"), 2: noslip()}),
        t_final=1.0, cfl=0.5, classify=classify,
        periodic=(False, False), aspect=(2, 1),
    )


CASES = {
    "leblanc": leblanc,
    "viscous-shock": viscous_shock,
    "viscous-shock-m20": lambda: viscous_shock(M0=20.0, mu=0.001),
    "viscous-shock-2d": lambda: viscous_shock(dim=2),
    "sine-shock": sine_shock,
    "vortex": isentropic_vortex,
    "sedov": sedov,
    "dmr": dmr,
    "daru": daru_tenaud,
}


def get_case(name: str) -> CaseSpec:
    try:
        ctor = CASES[name]
    except KeyError:
        raise ValueError(f"unknown case {name!r}; available: "
                         f"{', '.join(sorted(CASES))}") from None
    return ctor()


def error_norms(u, mesh: Mesh, case: CaseSpec, t: float = None, p: int = 1,
                per_variable: bool = False):
    """Relative quadrature-weighted L^p error against the exact solution.

    Returns the sum over conserved variables of ||u - u_ex||_p / ||u_ex||_p;
    variables whose exact norm vanishes identically (e.g. transverse
    momentum of an extruded profile) are excluded from the sum.
    """
    if case.exact is None:
        raise ValueError(f"case {case.name!r} has no exact solution")
    t = case.t_final if t is None else t
    ue = case.exact(mesh.xy, t)
    w = mesh.mass[..., None]
    num = np.sum(w * np.abs(u - ue) ** p, axis=(0, 1)) ** (1.0 / p)
    den = np.sum(w * np.abs(ue) ** p, axis=(0, 1)) ** (1.0 / p)
    rel = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return rel if per_variable else float(rel.sum())


def schlieren(rho, mesh: Mesh):
    """exp(-10 (g - g_min)/(g_max - g_min)) with g = |grad rho| at nodes.

    A constant-gradient-magnitude field (g_max = g_min) maps to all ones.
    """
    g2 = np.zeros_like(rho)
    dinf = 0.0
    for elems, gc in zip(mesh.class_elems, mesh.classes):
        if len(elems) == 0:
            continue
        for Qm in gc.Qx:
            D = Qm / gc.mass[:, None]
            dinf = max(dinf, np.max(np.sum(np.abs(D), axis=1)))
            d = rho[elems] @ D.T
            g2[elems] += d * d
    g = np.sqrt(g2)
    gmin, gmax = g.min(), g.max()
    # spread at the roundoff floor of the derivative evaluation counts as
    # constant; without this a uniform field would normalize pure noise
    noise = 1e-12 * np.max(np.abs(rho)) * dinf
    if gmax - gmin <= max(noise, 1e-12 * gmax):
        return np.ones_like(g)
    return np.exp(-10.0 * (g - gmin) / (gmax - gmin))
