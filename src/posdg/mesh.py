"""Uniform affine meshes with face-node connectivity.

Meshes store node coordinates per element, a per-element geometry class
(uniform meshes have one class, split-quad triangle meshes two), and flat
face-node arrays used by the residual evaluations.

The mesh has one node-pair graph: the pairs i < j on which the skew part
of the high-order operators Q_k or of the low-order operators QL_k is
nonzero. Each geometry class builds it from its own operators, and the
mesh checks at construction that every class gives the same pairs and the
same low-order subset; only the pair weights differ between classes, so
the mesh stacks them per element, shape (dim, npairs, K). The high-order
volume flux, the low-order graph viscosity and the convex limiter all work
on these pairs, on arrays laid out (variable, pair, element) over the
whole mesh, and a pair flux F_ij reaches the nodes through the +-1 scatter
operator (+F_ij to node i, -F_ij to node j) in one matrix product.

The face-node arrays, indexed (element, slot), are:

* ``fpartner``: for every face node, the flat index (element * Nfp + slot)
  of the coinciding face node of the neighbor, or -1 on the boundary;
* ``ftag``: integer boundary tag (0 for interior nodes) assigned by a
  user-supplied classifier;
* ``fnormal`` / ``fwsJ``: physical unit outward normal and surface
  quadrature weight (reference face weight times surface Jacobian).

Connectivity is built by matching integer keys made from the physical
face-node coordinates, with face centroids wrapped for periodic directions,
so all element types share one code path.
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
    pair_i: np.ndarray       # union sparsity of the skew parts, i < j
    pair_j: np.ndarray
    pair_s: np.ndarray       # (dim, npairs) high-order (Q_k - Q_k^T)_ij
    pair_n: np.ndarray       # (npairs, dim) n_ij = (QL_k - QL_k^T)_ij / 2,
                             # zero on pairs that are only high-order
    pair_low: np.ndarray     # indices of the low-order pairs
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
        pair_low=np.nonzero(low_mask[iu, ju])[0],
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
    fpartner: np.ndarray      # (K, Nfp) flat partner index or -1
    ftag: np.ndarray          # (K, Nfp)
    extent: tuple             # bounding box, ((ax, bx), ...) per dimension

    # arrays derived in __post_init__
    mass: np.ndarray = field(init=False)      # (K, Np)
    fxy: np.ndarray = field(init=False)       # (K, Nfp, dim)
    fnormal: np.ndarray = field(init=False)   # (K, Nfp, dim)
    fwsJ: np.ndarray = field(init=False)      # (K, Nfp)
    # the node-pair graph, shared by every class
    pair_i: np.ndarray = field(init=False)
    pair_j: np.ndarray = field(init=False)
    pair_low: np.ndarray = field(init=False)
    scatter: np.ndarray = field(init=False)   # (Np, npairs)
    pair_s: np.ndarray = field(init=False)    # (dim, npairs, K)
    pair_n: np.ndarray = field(init=False)    # (dim, npairs, K)

    def __post_init__(self):
        classes, cid = self.classes, self.class_id
        self.mass = np.stack([classes[c].mass for c in cid])
        self.fxy = self.xy[:, self.ops.face_vol, :]
        self.fnormal = np.stack([classes[c].normals for c in cid])
        self.fwsJ = np.stack([classes[c].wsJ for c in cid])

        first = classes[0]
        for c, gc in enumerate(classes[1:], start=1):
            if not all(np.array_equal(getattr(first, a), getattr(gc, a))
                       for a in ("pair_i", "pair_j", "pair_low")):
                raise ValueError(f"geometry classes 0 and {c} have different "
                                 f"node-pair graphs")
        self.pair_i, self.pair_j = first.pair_i, first.pair_j
        self.pair_low, self.scatter = first.pair_low, first.scatter
        # per element, its class's weights: (dim, npairs, K)
        self.pair_s = np.ascontiguousarray(
            np.stack([gc.pair_s for gc in classes], axis=-1)[..., cid])
        self.pair_n = np.ascontiguousarray(
            np.stack([gc.pair_n.T for gc in classes], axis=-1)[..., cid])

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
    def slot_exterior(self) -> np.ndarray:
        """The partner slot of every slot, a boundary slot's own, in the
        solver's slot-major order: slot s of element k at s * K + k, so
        that E^T lifts an (..., Nfp, K) face array as it stands."""
        K, Nfp = self.fpartner.shape
        own = np.arange(K * Nfp).reshape(K, Nfp)
        k, s = np.divmod(np.where(self.fpartner >= 0, self.fpartner, own), Nfp)
        return (s * K + k).T.reshape(-1)

    @cached_property
    def slot_normal(self) -> np.ndarray:
        """Unit outward normals, slot-major (dim, Nfp * K)."""
        return np.ascontiguousarray(self.fnormal.T).reshape(self.dim, -1)

    @cached_property
    def slot_wsJ(self) -> np.ndarray:
        """Surface quadrature weights, slot-major (Nfp * K,)."""
        return np.ascontiguousarray(self.fwsJ.T).reshape(-1)

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


def _connect(face_xy, face_cent, face_normal, extent, periodic, classify):
    """Match face nodes of conforming neighbor faces.

    A slot pairs with the slot at the same offset from the same face
    centroid whose face has the opposite normal. The centroid
    disambiguates mesh-vertex nodes, where several faces of surrounding
    elements meet; the normal keeps a slot from pairing with itself.
    Periodic directions wrap the centroid only: wrapping the nodes would
    give the two ends of a face one period long the same key. Each key
    coordinate is replaced by an integer cluster id (``_cluster``), so the
    keys match exactly. All are (K, Nfp, dim); returns (fpartner, ftag)
    with flat indices into K * Nfp.
    """
    K, Nfp, dim = face_xy.shape
    n = K * Nfp
    cent = face_cent.reshape(-1, dim).copy()
    offset = face_xy.reshape(-1, dim) - cent
    nrm = face_normal.reshape(-1, dim)
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
        ids = _cluster(np.concatenate([nrm[:, d], -nrm[:, d]]), 1e-7)
        plus.append(ids[:n])
        minus.append(ids[n:])
    keys = np.concatenate([np.stack(plus, axis=1), np.stack(minus, axis=1)])
    order = np.lexsort(keys.T)
    sk = keys[order]
    key_id = _group_ids(order, np.any(sk[1:] != sk[:-1], axis=1))
    # slot i pairs with the slot whose key under the flipped normal is its own
    owner = np.full(key_id.max() + 1, -1, dtype=np.int64)
    owner[key_id[n:]] = np.arange(n)
    fpartner = owner[key_id[:n]]
    matched = fpartner >= 0
    if np.any(matched):
        back = fpartner[fpartner[matched]]
        if not np.all(back == np.nonzero(matched)[0]):
            raise RuntimeError("face matching is not symmetric; mesh broken")

    ftag = np.zeros(K * Nfp, dtype=np.int64)
    bdry = fpartner < 0
    if np.any(bdry):
        coords = face_xy.reshape(-1, dim)[bdry]
        if classify is None:
            ftag[bdry] = 1
        else:
            tags = np.asarray(classify(coords), dtype=np.int64)
            if np.any(tags <= 0):
                raise ValueError("boundary classifier must return positive tags")
            ftag[bdry] = tags
    return fpartner.reshape(K, Nfp), ftag.reshape(K, Nfp)


def _build_connectivity(ops, xy, classes, class_id, extent, periodic, classify):
    face_xy = xy[:, ops.face_vol, :]
    cent = np.empty_like(face_xy)
    for f in range(ops.n_faces):
        rows = ops.face_index[f]
        cent[:, rows, :] = face_xy[:, rows, :].mean(axis=1, keepdims=True)
    fnormal = np.stack([classes[c].normals for c in class_id])
    return _connect(face_xy, cent, fnormal, extent, periodic, classify)


def interval_mesh(a: float, b: float, K: int, N: int,
                  periodic: bool = False, classify=None) -> Mesh:
    ops = build_ops("line", N)
    h = (b - a) / K
    left = a + h * np.arange(K)
    xy = left[:, None] + (ops.nodes[:, 0][None, :] + 1) * (h / 2)
    xy = xy[:, :, None]
    geo = _make_geo_class(ops, np.array([[h / 2]]))
    class_id = np.zeros(K, dtype=np.int64)
    fpartner, ftag = _build_connectivity(ops, xy, [geo], class_id,
                                         ((a, b),), (periodic,), classify)
    return Mesh(elem="line", N=N, ops=ops, xy=xy, class_id=class_id,
                classes=[geo], fpartner=fpartner, ftag=ftag, extent=((a, b),))


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

    fpartner, ftag = _build_connectivity(ops, xy, classes, class_id,
                                         ((ax, bx), (ay, by)), periodic, classify)
    return Mesh(elem=elem, N=N, ops=ops, xy=xy, class_id=class_id,
                classes=classes, fpartner=fpartner, ftag=ftag,
                extent=((ax, bx), (ay, by)))
