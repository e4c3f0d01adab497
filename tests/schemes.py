"""The residual operators of one state, called as ``Stepper.prepare`` calls
them: one face pass (``LowOrderRHS.face_states``) feeds the LDG gradient
and the low-order stage, one call of ``LowOrderRHS`` runs that stage and
returns the residual, the nodal rates and the low-order pair fluxes F^L,
and one call of ``HighOrderRHS`` returns the pair differences
dF = F^H - F^L. The high-order residual is the low-order one plus the
scatter of dF: the update of mode ``none``, and the end of every limiter's
blend. For the tests of the stage's pieces, ``Scheme`` also calls them one
by one, in the order ``LowOrderRHS.__call__`` calls them: the pass over
the ends that forms the wavespeeds and the normal fluxes (f - sigma) . e,
boundary ghosts included (``.wavespeeds``), the rates they feed
(``.rates``) and the low-order pair fluxes (``.pair_fluxes``). The slots'
viscous traces and exterior values, which the solver no longer forms, and
the normal fluxes of both sides of every slot are built here as oracles
(``Scheme.faces``, ``Scheme.face_fluxes``), and so are the boundary
conditions' exterior states and viscous fluxes, selected per tag with
boolean masks at every call (``face_states_ref``, ``exterior_sigma_ref``)
where the solver reads the slot groups its ``BCSet.group`` formed once.

The solver holds node values component first, (nvar, Np, K), and face
values as (nvar, Nfp * K); the tests build their states with the variable
index last, (K, Np, nvar), as ``advance`` takes them. ``Scheme`` is that
edge: its methods take variable-last node states and viscous fluxes, pass
them to the solver through ``components``, and give node results (residuals,
nodal rates, gradients) back variable-last. Face tuples, the end
tables, the slot weights and the pair arrays are returned in the solver's
layout.

The meshes and rough states that the residual tests and the guarantee
tests share are built here too: ``periodic_mesh``, ``walled_scheme``, and
the positivity fuzz's cases (``fuzz_schemes``) and draws
(``fuzz_state``)."""

import numpy as np

from posdg.bc import BCSet, dirichlet, noslip, wall
from posdg.mesh import interval_mesh, rect_mesh
from posdg.physics import (
    GasParams,
    internal_energy_cf,
    mirror_state,
    noslip_state,
    normal_flux,
    primitive_to_conserved,
    wall_riemann_state,
)
from posdg.rhs_high import HighOrderRHS, LDGGradient
from posdg.rhs_low import LowOrderRHS
from posdg.workspace import Workspace


def components(a):
    """(K, Np, nvar) node values as the solver holds them, a contiguous
    (nvar, Np, K) array; a tuple of them (the viscous fluxes) or None maps
    through."""
    if a is None or isinstance(a, np.ndarray):
        return None if a is None else np.ascontiguousarray(a.T)
    return tuple(np.ascontiguousarray(x.T) for x in a)


def variables_last(a):
    """The inverse of ``components``, as views."""
    if a is None or isinstance(a, np.ndarray):
        return None if a is None else a.T
    return tuple(x.T for x in a)


def node_thermo(u, gas):
    """(rho e, p) of (nvar, Np, K) node states, as ``Stepper.prepare``
    forms them for the stage kernels."""
    rhoe = internal_energy_cf(u)
    return rhoe, np.multiply(gas.gamma - 1.0, rhoe)


def face_states_ref(mesh, bcs, u, t, gas):
    """(uf, uP) of ``LowOrderRHS.face_states`` from (nvar, Np, K) node
    states: the traces at the slots' volume nodes, the partner's trace at
    an interior slot, and at a boundary slot the state of its tag's
    condition, selected with a boolean mask per tag of the table (the trace
    itself for outflow)."""
    uf = u[:, mesh.ops.face_vol].reshape(len(u), -1)
    uP = uf[:, mesh.slot_exterior]
    tags, normals = mesh.slot_tag, mesh.slot_normal
    for tag, bc in bcs.table.items():
        sel = tags == tag
        if not np.any(sel) or bc.kind == "outflow":
            continue
        if bc.kind == "dirichlet":
            uP[:, sel] = bc.fun(mesh.slot_xy[sel], t).T
        elif bc.kind == "wall" and bc.mode == "riemann":
            uP[:, sel] = wall_riemann_state(uf[:, sel], normals[:, sel], gas)
        elif bc.kind == "wall":
            uP[:, sel] = mirror_state(uf[:, sel], normals[:, sel])
        else:
            uP[:, sel] = noslip_state(uf[:, sel])
    return uf, uP


def exterior_sigma_ref(bcs, sigM, tags):
    """The exterior viscous fluxes of the slots with ``tags``: copies of
    ``sigM`` (one (nvar, n) array per direction), energy negated where a
    boolean mask per tag finds a wall or no-slip condition."""
    adiabatic = np.zeros(tags.shape, dtype=bool)
    for tag, bc in bcs.table.items():
        if bc.kind in ("wall", "noslip"):
            adiabatic |= tags == tag
    out = tuple(s.copy() for s in sigM)
    for sP in out:
        sP[-1, adiabatic] = -sP[-1, adiabatic]
    return out


class Scheme:
    """Low- and high-order residuals, LDG gradient and dt bound of a mesh."""

    def __init__(self, mesh, gas, bcs):
        self.mesh = mesh
        self.low = LowOrderRHS(mesh, gas, bcs)
        self.high = HighOrderRHS(mesh, gas)
        self.ldg = LDGGradient(mesh, gas)

    def face_states(self, uc, t=0.0):
        """(uf, uP) of ``LowOrderRHS.face_states`` of (nvar, Np, K) node
        states."""
        return self.low.face_states(uc, node_thermo(uc, self.low.gas)[1], t,
                                    Workspace())

    def faces(self, u, t=0.0, sigmas=None):
        """(uf, uP, sigf, sigP, nrm): the face states, the viscous face
        fluxes and the slots' normals. The solver forms no viscous face
        values, so they are built here, slot-major as the face states: the
        traces at the slots' volume nodes, the partner's trace at an
        interior slot and the boundary condition's exterior value at a
        boundary slot."""
        mesh = self.mesh
        uf, uP = self.face_states(components(u), t)
        if sigmas is None:
            return uf, uP, None, None, mesh.slot_normal
        sigf = tuple(s[:, mesh.ops.face_vol].reshape(len(s), -1)
                     for s in components(sigmas))
        sigP = tuple(s[:, mesh.slot_exterior] for s in sigf)
        tags = mesh.slot_tag
        b = tags > 0
        for sp, x in zip(sigP, exterior_sigma_ref(
                self.low.bcs, tuple(s[:, b] for s in sigf), tags[b])):
            sp[:, b] = x
        return uf, uP, sigf, sigP, mesh.slot_normal

    def face_fluxes(self, u, t=0.0, sigmas=None):
        """(FM, FP): the normal fluxes (f - sigma) . n of the traces and of
        the exterior states along the slots' normals, formed on ``faces``,
        as ``interface_flux_low`` takes them. sigma . n is summed over the
        directions before it is subtracted, as in the solver's end table."""
        uf, uP, sigf, sigP, nrm = self.faces(u, t, sigmas)
        out = []
        for us, ss in ((uf, sigf), (uP, sigP)):
            f = normal_flux(us, nrm, self.low.gas, ws=Workspace())
            if ss is not None:
                f -= sum(nrm[d] * ss[d] for d in range(len(nrm)))
            out.append(f)
        return tuple(out)

    def gradient(self, u, t=0.0):
        """(v, thetas, sigmas) of the LDG gradient, variable-last."""
        uc = components(u)
        v, thetas, sigmas = self.ldg(
            uc, *node_thermo(uc, self.low.gas), self.face_states(uc, t)[1],
            Workspace())
        return v.T, variables_last(thetas), variables_last(sigmas)

    def end_tables(self, u, t=0.0, sigmas=None):
        """(w, F, Fpair): the per-end wavespeeds and normal fluxes of
        ``LowOrderRHS.wavespeeds``, and the view of F's node ends, (nvar,
        ends, K), that the pair fluxes read."""
        uc = components(u)
        w, F = self.low.wavespeeds(
            uc, *node_thermo(uc, self.low.gas), self.face_states(uc, t)[1],
            components(sigmas), ws=Workspace())
        return w, F, F[:, :self.low._n_ends].reshape(len(F), self.low._ne,
                                                      -1)

    def wavespeeds(self, u, t=0.0, sigmas=None):
        """The per-end wavespeeds w."""
        return self.end_tables(u, t, sigmas)[0]

    def rates(self, u, t=0.0, sigmas=None):
        """(lam_p, lam_s, lam) of ``LowOrderRHS.rates``."""
        return self.low.rates(self.wavespeeds(u, t, sigmas), Workspace())

    def low_pairs(self, u, t=0.0, sigmas=None):
        """(P, lambda): the low-order pair fluxes and weights."""
        w, _, Fpair = self.end_tables(u, t, sigmas)
        lam_p = self.low.rates(w, Workspace())[0]
        return (self.low.pair_fluxes(components(u), lam_p, Fpair,
                                     Workspace()), lam_p)

    def high_pairs(self, u, sigmas=None):
        """F^H: the high-order pair fluxes."""
        uc = components(u)
        return self.high.pair_fluxes(uc, node_thermo(uc, self.low.gas)[1],
                                     components(sigmas), ws=Workspace())

    def _low(self, u, t, sigmas):
        """(R^L, lam, F^L) of ``LowOrderRHS.__call__``."""
        uc = components(u)
        return self.low(uc, *node_thermo(uc, self.low.gas),
                        *self.face_states(uc, t), components(sigmas),
                        ws=Workspace())

    def differences(self, u, sigmas, FL):
        """dF of ``HighOrderRHS.__call__`` from F^L."""
        uc = components(u)
        return self.high(uc, node_thermo(uc, self.low.gas)[1],
                         components(sigmas), FL, Workspace())

    def low_residual(self, u, t=0.0, sigmas=None):
        """(R, lam): the low-order residual and its nodal rates."""
        R, lam, _ = self._low(u, t, sigmas)
        return R.T, lam.T

    def pair_differences(self, u, t=0.0, sigmas=None):
        """dF = F^H - F^L of ``HighOrderRHS.__call__``."""
        FL = self._low(u, t, sigmas)[2]
        return self.differences(u, sigmas, FL)

    def high_residual(self, u, t=0.0, sigmas=None):
        """R^L + scatter(F^H - F^L)."""
        R, _, FL = self._low(u, t, sigmas)
        dF = self.differences(u, sigmas, FL)
        return (R + self.mesh.scatter @ dF).T

    def max_dt(self, u, t=0.0, sigmas=None):
        """The positivity bound min_i m_i / (2 lambda_i)."""
        lam = self.rates(u, t, sigmas)[2]
        return float((self.mesh.node_mass / (2.0 * lam)).min())


# ---------------------------------------------------------------------------
# meshes and rough states shared by the residual and the guarantee tests
# ---------------------------------------------------------------------------

def periodic_mesh(elem, N, K=4):
    """A periodic mesh of [0, 2 pi]^dim."""
    if elem == "line":
        return interval_mesh(0.0, 2 * np.pi, 4 * K, N, periodic=True)
    return rect_mesh(elem, (0.0, 2 * np.pi, 0.0, 2 * np.pi), K, K, N,
                     periodic=(True, True))


def walled_scheme(elem, N, gas, wall_mode="mirror"):
    """A non-periodic mesh with wall, no-slip and Dirichlet boundaries, and
    a random admissible state on it."""
    rng = np.random.default_rng(N)
    if elem == "line":
        mesh = interval_mesh(0.0, 2.0, 6, N,
                             classify=lambda x: np.where(x[:, 0] < 1.0, 1, 3))
    else:
        def classify(xy):
            return np.where(np.abs(xy[:, 0]) < 1e-12, 3,
                            np.where(xy[:, 1] < -1.0 + 1e-12, 2, 1))

        mesh = rect_mesh(elem, (0.0, 2.0, -1.0, 1.0), 3, 2, N,
                         classify=classify)
    u_out = primitive_to_conserved(
        np.array([1.2] + [0.3, -0.1][:mesh.dim] + [0.9]), gas)

    def g(xb, t):
        return np.broadcast_to(u_out, (len(xb), len(u_out)))

    bcs = BCSet({1: wall(wall_mode), 2: noslip(), 3: dirichlet(g)})
    shape = mesh.xy.shape[:-1]
    prim = np.empty(shape + (mesh.dim + 2,))
    prim[..., 0] = rng.uniform(0.2, 3.0, shape)
    prim[..., 1:-1] = rng.uniform(-2.0, 2.0, shape + (mesh.dim,))
    prim[..., -1] = rng.uniform(0.2, 3.0, shape)
    return Scheme(mesh, gas, bcs), primitive_to_conserved(prim, gas)


def fuzz_state(rng, mesh, gas):
    """Per node, rho and p log-uniform in [1e-8, 10] and a Mach number
    uniform in [0, 20] in a random direction; (u, p), variable-last."""
    shape = mesh.xy.shape[:-1]
    rho, p = 10.0 ** rng.uniform(-8.0, 1.0, (2,) + shape)
    speed = rng.uniform(0.0, 20.0, shape) * np.sqrt(gas.gamma * p / rho)
    if mesh.dim == 1:
        vel = [speed * rng.choice([-1.0, 1.0], shape)]
    else:
        angle = rng.uniform(0.0, 2 * np.pi, shape)
        vel = [speed * np.cos(angle), speed * np.sin(angle)]
    return primitive_to_conserved(np.stack([rho, *vel, p], axis=-1), gas), p


def fuzz_schemes():
    """The cases of the positivity fuzz, ((elem, N, viscous, walled),
    Scheme): line N=3, quad and tri N=2 and 3; inviscid and mu = 0.01;
    periodic, and walled with wall-Riemann, no-slip and Dirichlet
    boundaries."""
    for elem, N in [("line", 3), ("quad", 2), ("quad", 3), ("tri", 2),
                    ("tri", 3)]:
        for gas in (GasParams(gamma=1.4),
                    GasParams(gamma=1.4, mu=0.01, Pr=0.75)):
            for walled in (False, True):
                if walled:
                    sch = walled_scheme(elem, N, gas, "riemann")[0]
                else:
                    sch = Scheme(periodic_mesh(elem, N, K=3), gas, BCSet({}))
                yield (elem, N, gas.viscous, walled), sch
