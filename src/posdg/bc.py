"""Weakly imposed boundary conditions via exterior ("ghost") states.

Every boundary face node carries an integer tag; a :class:`BCSet` maps tags
to conditions. Residual evaluations ask for the exterior conserved state
(and, for viscous runs, the exterior viscous fluxes) at boundary slots and
otherwise treat boundaries exactly like interior interfaces.

The tags, coordinates and normals of the slots are fixed with the mesh, so
the slots are grouped by condition once, at construction
(:meth:`BCSet.group`): one :class:`SlotGroup` per condition that sets a
state, with its slot indices, coordinates and normals, and the rows of the
adiabatic (wall and no-slip) slots among the boundary slots. A stage then
selects nothing by tag: :meth:`BCSet.exterior_state` evaluates each
group's states and writes them into the exterior face states at its slots,
and :meth:`BCSet.exterior_sigma` negates the energy rows of the adiabatic
slots.

Conditions:

* ``dirichlet``: exterior state from a prescribed function g(x, t);
* ``wall``: reflective slip wall; ``mode="mirror"`` mirrors the normal
  velocity, ``mode="riemann"`` additionally carries the exact star pressure
  of the wall Riemann problem;
* ``noslip``: adiabatic no-slip wall (full velocity reversal);
* ``outflow``: copy of the interior state.

Viscous exterior fluxes are copies of the interior ones, with the energy
component negated on walls and no-slip boundaries so no heat flux nor
spurious work enters the domain (adiabatic). The mass row of a viscous flux
is zero, so the low-order stage hands :meth:`BCSet.exterior_sigma` the
momentum and energy rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .physics import GasParams, mirror_state, noslip_state, wall_riemann_state

__all__ = ["BC", "BCSet", "SlotGroup", "dirichlet", "wall", "noslip",
           "outflow"]


@dataclass(frozen=True)
class BC:
    kind: str
    fun: object = None          # Dirichlet: (x, t) -> conserved states
    mode: str = "mirror"        # wall flavor


def dirichlet(fun) -> BC:
    return BC(kind="dirichlet", fun=fun)


def wall(mode: str = "mirror") -> BC:
    if mode not in ("mirror", "riemann"):
        raise ValueError(f"unknown wall mode {mode!r}")
    return BC(kind="wall", mode=mode)


def noslip() -> BC:
    return BC(kind="noslip")


def outflow() -> BC:
    return BC(kind="outflow")


@dataclass(frozen=True)
class SlotGroup:
    """The boundary slots of one condition, formed once per mesh."""

    bc: BC
    slots: np.ndarray        # (n,) slot indices, ascending
    xy: np.ndarray           # (n, dim) node coordinates
    normals: np.ndarray      # (dim, n) unit outward normals


@dataclass
class BCSet:
    """Tag-to-condition mapping over the flat boundary face-node arrays."""

    table: dict = field(default_factory=dict)

    def validate(self, tags: np.ndarray):
        used = set(tags[tags > 0].tolist())
        known = set(self.table.keys())
        if not used <= known:
            raise ValueError(f"boundary tags {sorted(used - known)} have no condition")

    def group(self, tags, xy, normals):
        """The boundary slots grouped by condition: (groups, adiabatic).

        ``tags`` (n,), ``xy`` (n, dim) and ``normals`` (dim, n) are flat
        over the face slots. ``groups`` holds one :class:`SlotGroup` per
        tag in table order, except outflow tags, whose exterior state is
        the trace itself, and tags no slot carries. ``adiabatic`` are the
        rows of the wall and no-slip slots among the boundary slots
        (``tags > 0``) in slot order, the rows :meth:`exterior_sigma`
        negates.
        """
        self.validate(tags)
        groups = []
        adiabatic = np.zeros(tags.shape, dtype=bool)
        for tag, bc in self.table.items():
            slots = np.nonzero(tags == tag)[0]
            if not slots.size or bc.kind == "outflow":
                continue
            if bc.kind not in ("dirichlet", "wall", "noslip"):
                raise ValueError(f"unknown boundary kind {bc.kind!r}")
            groups.append(SlotGroup(bc, slots, xy[slots],
                                    np.ascontiguousarray(normals[:, slots])))
            adiabatic[slots] = bc.kind != "dirichlet"
        return tuple(groups), np.nonzero(adiabatic[tags > 0])[0]

    def exterior_state(self, uM, uP, groups, t, gas: GasParams):
        """Write the exterior conserved states of the boundary slots into
        ``uP``.

        ``uM`` and ``uP`` are the traces and the exterior states, component
        first, (nvar, n), flat over the face slots; ``groups`` are the
        slot groups of :meth:`group`, formed once per mesh. Each group's
        states are evaluated at its slots and written there: Dirichlet
        data from the group's (n, dim) coordinates (the functions return
        states with the variable index last), walls and no-slip walls from
        the traces. The other slots of ``uP``, the outflow ones included,
        are left as they are.
        """
        for g in groups:
            bc = g.bc
            if bc.kind == "dirichlet":
                uP[:, g.slots] = bc.fun(g.xy, t).T
                continue
            trace = uM.take(g.slots, axis=1)
            if bc.kind == "wall" and bc.mode == "riemann":
                uP[:, g.slots] = wall_riemann_state(trace, g.normals, gas)
            elif bc.kind == "wall":
                uP[:, g.slots] = mirror_state(trace, g.normals)
            else:
                uP[:, g.slots] = noslip_state(trace)

    def exterior_sigma(self, sigM, adiabatic):
        """Exterior viscous fluxes of the boundary slots, component first
        like ``sigM``: copies, energy (the last row) negated on the
        ``adiabatic`` slots of :meth:`group`, the (no-slip) walls. The
        other rows are copied as given, so ``sigM`` may hold the momentum
        and energy rows alone, as the mass row of sigma is zero."""
        out = []
        for s in sigM:
            sP = s.copy()
            sP[-1, adiabatic] = -sP[-1, adiabatic]
            out.append(sP)
        return tuple(out)
