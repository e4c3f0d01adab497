"""Weakly imposed boundary conditions via exterior ("ghost") states.

Every boundary face node carries an integer tag; a :class:`BCSet` maps tags
to conditions. Residual evaluations ask for the exterior conserved state
(and, for viscous runs, the exterior viscous fluxes) at boundary slots and
otherwise treat boundaries exactly like interior interfaces.

Conditions:

* ``dirichlet``: exterior state from a prescribed function g(x, t);
* ``wall``: reflective slip wall; ``mode="mirror"`` mirrors the normal
  velocity, ``mode="riemann"`` additionally carries the exact star pressure
  of the wall Riemann problem;
* ``noslip``: adiabatic no-slip wall (full velocity reversal);
* ``outflow``: copy of the interior state.

Viscous exterior fluxes are copies of the interior ones, with the energy
component negated on walls and no-slip boundaries so no heat flux nor
spurious work enters the domain (adiabatic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .physics import GasParams, mirror_state, noslip_state, wall_riemann_state

__all__ = ["BC", "BCSet", "dirichlet", "wall", "noslip", "outflow"]


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


@dataclass
class BCSet:
    """Tag-to-condition mapping over the flat boundary face-node arrays."""

    table: dict = field(default_factory=dict)

    def validate(self, tags: np.ndarray):
        used = set(tags[tags > 0].tolist())
        known = set(self.table.keys())
        if not used <= known:
            raise ValueError(f"boundary tags {sorted(used - known)} have no condition")

    def exterior_state(self, uM, xy, normals, tags, t, gas: GasParams):
        """Exterior conserved states for boundary slots.

        The states are component first, ``uM`` (nvar, n) and ``normals``
        (dim, n), flat over face nodes; ``xy`` holds the (n, dim) node
        coordinates for Dirichlet data, whose functions return states with
        the variable index last. Interior slots (tag 0) are returned
        untouched as copies of ``uM``.
        """
        uP = uM.copy()
        for tag, bc in self.table.items():
            sel = tags == tag
            if not np.any(sel) or bc.kind == "outflow":
                continue  # outflow: the copy is already in place
            if bc.kind == "dirichlet":
                ext = bc.fun(xy[sel], t).T
            elif bc.kind == "wall" and bc.mode == "riemann":
                ext = wall_riemann_state(uM[:, sel], normals[:, sel], gas)
            elif bc.kind == "wall":
                ext = mirror_state(uM[:, sel], normals[:, sel])
            elif bc.kind == "noslip":
                ext = noslip_state(uM[:, sel])
            else:
                raise ValueError(f"unknown boundary kind {bc.kind!r}")
            uP[:, sel] = ext
        return uP

    def exterior_sigma(self, sigM, tags):
        """Exterior viscous fluxes, component first like ``sigM``: copies,
        energy negated on (no-slip) walls."""
        out = []
        adiabatic = np.zeros(tags.shape, dtype=bool)
        for tag, bc in self.table.items():
            if bc.kind in ("wall", "noslip"):
                adiabatic |= tags == tag
        for s in sigM:
            sP = s.copy()
            sP[-1, adiabatic] = -sP[-1, adiabatic]
            out.append(sP)
        return tuple(out)
