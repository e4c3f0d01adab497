"""Uniform affine meshes with face-slot connectivity.

Meshes store node coordinates per element, a per-element geometry class
(uniform meshes have one class, split-quad triangle meshes two), and flat
face-slot arrays used by the residual evaluations.

The mesh has one node-pair graph: the pairs i < j on which the skew part
of the high-order operators Q_k or of the low-order operators QL_k is
nonzero. The low-order pairs, those with a nonzero QL_k part, lead it:
the first ``n_low`` pairs are the low-order ones and the rest are only
high-order, each block in upper-triangle (row-major) order. So the
low-order scheme and the pair differences F^H - F^L select their pairs
with a leading slice, ``[:n_low]``, and no index array. Each geometry
class builds the graph from its own operators, and the mesh checks at
construction that every class gives the same pairs and the same count
``n_low``; only the pair weights differ between classes, so the mesh
stacks the high-order ones per element, shape (dim, npairs, K).
The high-order volume flux, the low-order graph viscosity and the convex
limiter all work on these pairs, on arrays laid out (variable, pair,
element) over the whole mesh, and a pair flux F_ij reaches the nodes
through the +-1 scatter operator (+F_ij to node i, -F_ij to node j) in one
matrix product.

The face arrays are flat over the Nfp * K face slots in the solver's
slot-major order, slot s of element k at s * K + k, so that E^T lifts an
(..., Nfp * K) face array reshaped to (..., Nfp, K) as it stands. Each is
formed once, at construction:

* ``slot_xy``: (Nfp * K, dim) node coordinates, coordinates last as in
  ``xy``;
* ``slot_normal`` / ``slot_wsJ``: (dim, Nfp * K) physical unit outward
  normals and (Nfp * K,) surface quadrature weights (reference face
  weight times surface Jacobian), each element's taken from its geometry
  class;
* ``slot_exterior``: the partner slot of every slot, a boundary slot's
  own index;
* ``slot_tag``: integer boundary tag, 0 at interior slots, assigned to the
  boundary slots by a user-supplied classifier.

``_connect`` forms the last two from the first two and the face
centroids, by matching integer keys made from the physical face-node
coordinates, with face centroids wrapped for periodic directions, so all
element types share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .sbp import RefOps, build_ops

__all__ = ["GeoClass", "Mesh", "interval_mesh", "rect_mesh"]


@dataclass(frozen=True)
class GeoClass:
    """Physical operators shared by all elements with the same affine map."""

    G: np.ndarray            # (dim, dim) cofactor matrix J * A^{-T}
    J: float
    Qx: tuple                # physical high-order operators, one per direction
    QLx: tuple               # physical low-order operators
    mass: np.ndarray         # (Np,) J * w
    wsJ: np.ndarray          # (Nfp,) physical face weights
    normals: np.ndarray      # (Nfp, dim) physical unit outward normals
    pair_i: np.ndarray       # union sparsity of the skew parts, i < j:
    pair_j: np.ndarray       # the low-order pairs first, each block in
                             # upper-triangle order
    pair_s: np.ndarray       # (dim, npairs) high-order (Q_k - Q_k^T)_ij
    pair_n: np.ndarray       # (npairs, dim) n_ij = (QL_k - QL_k^T)_ij / 2,
                             # nonzero on exactly the first n_low pairs
    n_low: int               # number of low-order pairs, which lead
    scatter: np.ndarray      # (Np, npairs): +1 at row i, -1 at row j


def _make_geo_class(ops: RefOps, A: np.ndarray) -> GeoClass:
    dim = ops.dim
    A = np.atleast_2d(A)
    J = float(np.linalg.det(A))
    if J <= 0:
        raise ValueError("element map must be orientation preserving")
    G = J * np.linalg.inv(A).T

    Qx = [sum(G[m, k] * ops.Q[k] for k in range(dim)) for m in range(dim)]
    QLx = [sum(G[m, k] * ops.QL[k] for k in range(dim)) for m in range(dim)]

    # face scaling: reference w^f nhat mapped through G gives wsJ * unit n
    Bphys = np.stack([sum(G[m, k] * ops.Bdiag[k] for k in range(dim))
                      for m in range(dim)], axis=-1)      # (Nfp, dim)
    wsJ = np.linalg.norm(Bphys, axis=1)
    normals = Bphys / wsJ[:, None]

    # pair graph: union of the high- and low-order skew sparsities
    high = [Q - Q.T for Q in Qx]
    low = [0.5 * (Q - Q.T) for Q in QLx]
    low_mask = np.any([np.abs(S) > 1e-14 for S in low], axis=0)
    mask = low_mask | np.any([np.abs(S) > 1e-14 for S in high], axis=0)
    iu, ju = np.nonzero(np.triu(mask, k=1))
    # the low-order pairs first; the stable sort keeps each block's order
    is_low = low_mask[iu, ju]
    order = np.argsort(~is_low, kind="stable")
    iu, ju = iu[order], ju[order]
    cols = np.arange(len(iu))
    scatter = np.zeros((ops.n_nodes, len(iu)))
    scatter[iu, cols] = 1.0
    scatter[ju, cols] = -1.0
    return GeoClass(
        G=G, J=J, Qx=tuple(Qx), QLx=tuple(QLx),
        mass=J * ops.weights, wsJ=wsJ, normals=normals,
        pair_i=iu, pair_j=ju,
        pair_s=np.stack([S[iu, ju] for S in high]),
        pair_n=np.stack([S[iu, ju] for S in low], axis=-1),
        n_low=int(np.count_nonzero(is_low)),
        scatter=scatter,
    )


@dataclass
class Mesh:
    elem: str
    N: int
    ops: RefOps
    xy: np.ndarray            # (K, Np, dim)
    class_id: np.ndarray      # (K,)
    classes: list
    extent: tuple             # bounding box, ((ax, bx), ...) per dimension
    periodic: tuple           # per dimension
    classify: object          # (n, dim) boundary points -> tags, or None

    # arrays derived in __post_init__
    mass: np.ndarray = field(init=False)           # (K, Np)
    # the face slots, slot-major
    slot_xy: np.ndarray = field(init=False)        # (Nfp * K, dim)
    slot_normal: np.ndarray = field(init=False)    # (dim, Nfp * K)
    slot_wsJ: np.ndarray = field(init=False)       # (Nfp * K,)
    slot_exterior: np.ndarray = field(init=False)  # (Nfp * K,)
    slot_tag: np.ndarray = field(init=False)       # (Nfp * K,)
    # the node-pair graph, shared by every class
    pair_i: np.ndarray = field(init=False)
    pair_j: np.ndarray = field(init=False)
    n_low: int = field(init=False)            # the low-order pairs lead
    scatter: np.ndarray = field(init=False)   # (Np, npairs)
    pair_s: np.ndarray = field(init=False)    # (dim, npairs, K)

    def __post_init__(self):
        classes, cid, ops = self.classes, self.class_id, self.ops
        dim = ops.dim
        self.mass = np.stack([gc.mass for gc in classes])[cid]
        xyf = self.xy[:, ops.face_vol].transpose(1, 0, 2)     # (Nfp, K, dim)
        self.slot_xy = xyf.reshape(-1, dim)
        self.slot_normal = np.stack([gc.normals.T for gc in classes],
                                    axis=-1)[..., cid].reshape(dim, -1)
        self.slot_wsJ = np.stack([gc.wsJ for gc in classes],
                                 axis=-1)[:, cid].reshape(-1)
        cent = np.empty_like(xyf)
        for rows in ops.face_index:
            cent[rows] = xyf[rows].mean(axis=0)
        self.slot_exterior, self.slot_tag = _connect(
            self.slot_xy, cent.reshape(-1, dim), self.slot_normal.T,
            self.extent, self.periodic, self.classify)

        first = classes[0]
        for c, gc in enumerate(classes[1:], start=1):
            if not all(np.array_equal(getattr(first, a), getattr(gc, a))
                       for a in ("pair_i", "pair_j", "n_low")):
                raise ValueError(f"geometry classes 0 and {c} have different "
                                 f"node-pair graphs")
        self.pair_i, self.pair_j = first.pair_i, first.pair_j
        self.n_low, self.scatter = first.n_low, first.scatter
        # per element, its class's weights: (dim, npairs, K)
        self.pair_s = np.ascontiguousarray(
            np.stack([gc.pair_s for gc in classes], axis=-1)[..., cid])

    @property
    def n_elements(self) -> int:
        return len(self.xy)

    @property
    def n_face_nodes(self) -> int:
        return self.ops.E.shape[0]

    @property
    def dim(self) -> int:
        return self.ops.dim

    @cached_property
    def class_elems(self) -> list:
        """Element indices of each geometry class."""
        return [np.nonzero(self.class_id == c)[0]
                for c in range(len(self.classes))]

    @property
    def total_mass(self):
        return self.mass.sum()

    @cached_property
    def node_mass(self) -> np.ndarray:
        """The node masses J w in the solver's component-first layout,
        C-contiguous (Np, K): ``mass`` transposed."""
        return np.ascontiguousarray(self.mass.T)

    @cached_property
    def slot_dissipation(self) -> np.ndarray:
        """Interface dissipation weights wsJ |n|_1 / 2, slot-major (Nfp *
        K,): times a slot's wavespeed, its rate lambda_s in the interface
        flux."""
        return 0.5 * self.slot_wsJ * np.abs(self.slot_normal).sum(axis=0)


def _group_ids(order: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Integer ids in input order from a sort ``order`` and the flags
    ``new[k]``: sorted entry k + 1 starts a new group."""
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.concatenate(([0], np.cumsum(new)))
    return ids


def _cluster(values: np.ndarray, tol: float) -> np.ndarray:
    """Integer ids of ``values``: in sorted order, a value at most ``tol``
    above its predecessor shares its id."""
    order = np.argsort(values, kind="stable")
    return _group_ids(order, np.diff(values[order]) > tol)


def _connect(xy, cent, normal, extent, periodic, classify):
    """Match the face slots of conforming neighbor faces.

    A slot pairs with the slot at the same offset from the same face
    centroid whose face has the opposite normal. The centroid
    disambiguates mesh-vertex nodes, where several faces of surrounding
    elements meet; the normal keeps a slot from pairing with itself.
    Periodic directions wrap the centroid only: wrapping the nodes would
    give the two ends of a face one period long the same key. Each key
    coordinate is replaced by an integer cluster id (``_cluster``), so the
    keys match exactly. The node coordinates, face centroids and unit
    normals are all (n, dim), flat over the n slots in any order; the
    unmatched slots' coordinates are passed to ``classify``, which returns
    their positive tags (all 1 without one). Returns (exterior, tag), both
    (n,): the partner of every slot, a boundary slot's own index, and the
    tags, 0 at matched slots.
    """
    n, dim = xy.shape
    offset = xy - cent
    cent = cent.copy()
    span = np.array([hi - lo for lo, hi in extent])
    lo = np.array([e[0] for e in extent])
    for d in range(dim):
        if periodic[d]:
            # centroids at the upper boundary land on the lower one; only
            # centroids exactly on the seam move
            cent[:, d] = lo[d] + np.mod(cent[:, d] - lo[d], span[d])
            seam = np.abs(cent[:, d] - (lo[d] + span[d])) < 1e-9 * span[d]
            cent[seam, d] = lo[d]

    tol = 1e-7 * span.max()
    plus, minus = [], []
    for d in range(dim):
        for arr in (offset, cent):
            ids = _cluster(arr[:, d], tol)
            plus.append(ids)
            minus.append(ids)
        # unit normals: the relative tolerance applies unscaled
        ids = _cluster(np.concatenate([normal[:, d], -normal[:, d]]), 1e-7)
        plus.append(ids[:n])
        minus.append(ids[n:])
    keys = np.concatenate([np.stack(plus, axis=1), np.stack(minus, axis=1)])
    order = np.lexsort(keys.T)
    sk = keys[order]
    key_id = _group_ids(order, np.any(sk[1:] != sk[:-1], axis=1))
    # slot i pairs with the slot whose key under the flipped normal is its own
    owner = np.full(key_id.max() + 1, -1, dtype=np.int64)
    owner[key_id[n:]] = np.arange(n)
    partner = owner[key_id[:n]]
    bdry = partner < 0
    exterior = np.where(bdry, np.arange(n), partner)
    if not np.array_equal(exterior[exterior], np.arange(n)):
        raise RuntimeError("face matching is not symmetric; mesh broken")

    tag = np.zeros(n, dtype=np.int64)
    if np.any(bdry):
        if classify is None:
            tag[bdry] = 1
        else:
            tags = np.asarray(classify(xy[bdry]), dtype=np.int64)
            if np.any(tags <= 0):
                raise ValueError("boundary classifier must return positive tags")
            tag[bdry] = tags
    return exterior, tag


def interval_mesh(a: float, b: float, K: int, N: int,
                  periodic: bool = False, classify=None) -> Mesh:
    ops = build_ops("line", N)
    h = (b - a) / K
    left = a + h * np.arange(K)
    xy = left[:, None] + (ops.nodes[:, 0][None, :] + 1) * (h / 2)
    xy = xy[:, :, None]
    geo = _make_geo_class(ops, np.array([[h / 2]]))
    return Mesh(elem="line", N=N, ops=ops, xy=xy,
                class_id=np.zeros(K, dtype=np.int64), classes=[geo],
                extent=((a, b),), periodic=(periodic,), classify=classify)


def rect_mesh(elem: str, box, Kx: int, Ky: int, N: int,
              periodic=(False, False), classify=None) -> Mesh:
    """Uniform mesh of the rectangle ``box`` = (ax, bx, ay, by).

    ``elem`` is "quad" or "tri"; triangles split each cell along the
    anti-diagonal into a lower-left and an upper-right element.
    """
    ax, bx, ay, by = box
    hx, hy = (bx - ax) / Kx, (by - ay) / Ky
    ex = np.arange(Kx)
    ey = np.arange(Ky)
    x0 = ax + hx * np.tile(ex, Ky)
    y0 = ay + hy * np.repeat(ey, Kx)

    if elem == "quad":
        ops = build_ops("quad", N)
        r = ops.nodes[:, 0]
        s = ops.nodes[:, 1]
        X = x0[:, None] + (r[None, :] + 1) * (hx / 2)
        Y = y0[:, None] + (s[None, :] + 1) * (hy / 2)
        xy = np.stack([X, Y], axis=-1)
        classes = [_make_geo_class(ops, np.diag([hx / 2, hy / 2]))]
        class_id = np.zeros(Kx * Ky, dtype=np.int64)
    elif elem == "tri":
        ops = build_ops("tri", N)
        r = ops.nodes[:, 0]
        s = ops.nodes[:, 1]
        # lower-left triangle: (x0,y0)-(x1,y0)-(x0,y1)
        Xl = x0[:, None] + (r[None, :] + 1) * (hx / 2)
        Yl = y0[:, None] + (s[None, :] + 1) * (hy / 2)
        # upper-right triangle: (x1,y1)-(x0,y1)-(x1,y0), rotated affine map
        Xu = (x0 + hx)[:, None] - (r[None, :] + 1) * (hx / 2)
        Yu = (y0 + hy)[:, None] - (s[None, :] + 1) * (hy / 2)
        xy = np.concatenate([np.stack([Xl, Yl], axis=-1),
                             np.stack([Xu, Yu], axis=-1)])
        classes = [_make_geo_class(ops, np.diag([hx / 2, hy / 2])),
                   _make_geo_class(ops, -np.diag([hx / 2, hy / 2]))]
        class_id = np.concatenate([np.zeros(Kx * Ky, dtype=np.int64),
                                   np.ones(Kx * Ky, dtype=np.int64)])
    else:
        raise ValueError(f"unknown 2d element type {elem!r}")

    return Mesh(elem=elem, N=N, ops=ops, xy=xy, class_id=class_id,
                classes=classes, extent=((ax, bx), (ay, by)),
                periodic=periodic, classify=classify)
