"""Summation-by-parts operators on reference elements.

Each reference element (line, quadrilateral, triangle) carries a nodal
quadrature and two families of operators that share the same diagonal norm
``M = diag(w)``, the same 0/1 face-extraction matrix ``E`` and the same
boundary matrices ``B_k = diag(w^f * nhat_k)``:

* high-order operators ``Q_k`` with ``Q_k + Q_k^T = E^T B_k E`` and exact
  differentiation of total-degree-N polynomials through ``D_k = M^{-1} Q_k``;
* sparse low-order operators ``QL_k`` satisfying the same SBP identity and
  ``QL_k 1 = 0`` but only first-order accuracy, built from a one-dimensional
  three-point stencil (tensor elements) or from a node-graph potential
  (triangles).

Lines and quadrilaterals collocate on Gauss-Lobatto nodes; triangles use
tabulated positive-weight rules whose boundary nodes are per-face
Gauss-Legendre points (see ``_tri_tables``). :func:`tri_ops` turns any rule
of that form into operators and :func:`check_ops` lists the identity
residuals of any element's operators; the offline table generator
(``scripts/generate_tri_tables.py``) accepts a rule through these two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._tri_tables import TRI_TABLES

__all__ = [
    "RefOps",
    "build_ops",
    "tri_ops",
    "check_ops",
    "lgl_rule",
    "legendre",
    "jacobi_p",
    "grad_jacobi_p",
    "loworder_q1d",
    "node_graph",
    "graph_potentials",
    "NODE_GRAPH_ALPHA",
]

# node-graph radius rule: nodes connect within alpha * max((w/pi)^beta);
# beta = 1/2 makes the radius that of a disk with the node's quadrature
# weight as area, which keeps the factor uniform across degrees even though
# the tabulated weights themselves span two orders of magnitude
NODE_GRAPH_ALPHA = 2.75
NODE_GRAPH_BETA = 0.5


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------

def legendre(n: int, x):
    """Legendre polynomial P_n and its derivative, by three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p0 = np.ones_like(x)
    if n == 0:
        return p0, np.zeros_like(x)
    p1 = x.copy()
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    dp = n * (x * p1 - p0) / (x * x - 1.0 + 1e-300)
    # endpoints need the closed form; the rational formula is 0/0 there
    ends = np.abs(np.abs(x) - 1.0) < 1e-14
    if np.any(ends):
        dp = np.where(ends, np.sign(x) ** (n + 1) * n * (n + 1) / 2.0, dp)
    return p1, dp


def lgl_rule(n: int, tol: float = 1e-15, maxit: int = 100):
    """Gauss-Lobatto-Legendre rule with ``n`` points on [-1, 1].

    Interior nodes are the roots of P'_{n-1}, found by Newton iteration from
    Chebyshev-Lobatto initial guesses; weights are 2 / (m (m+1) P_m(x)^2)
    with m = n - 1.
    """
    if n < 2:
        raise ValueError("Lobatto rule needs at least 2 points")
    m = n - 1
    x = -np.cos(np.pi * np.arange(n) / m)
    for _ in range(maxit):
        p, dp = legendre(m, x)
        # f = (1 - x^2) P'_m has all n nodes as roots
        f = (1 - x * x) * dp
        df = -2 * x * dp - m * (m + 1) * p
        dx = f / df
        x = x - dx
        if np.max(np.abs(dx)) < tol:
            break
    x[0], x[-1] = -1.0, 1.0
    p, _ = legendre(m, x)
    w = 2.0 / (m * (m + 1) * p * p)
    return x, w


def lagrange_diff_matrix(x: np.ndarray) -> np.ndarray:
    """Differentiation matrix of the Lagrange basis on nodes ``x``."""
    n = len(x)
    c = np.ones(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                c[i] *= x[i] - x[j]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = c[i] / (c[j] * (x[i] - x[j]))
    D[np.arange(n), np.arange(n)] = -D.sum(axis=1)
    return D


def loworder_q1d(n: int) -> np.ndarray:
    """Sparse low-order Q on ``n`` nodes: three-point central stencil.

    First and last rows are one-sided (-1/2, 1/2); interior rows are
    (-1/2, 0, 1/2) on the node's neighbors. Satisfies Q 1 = 0 and
    Q + Q^T = diag(-1, 0, ..., 0, 1) regardless of node spacing.
    """
    Q = np.zeros((n, n))
    Q[0, 0], Q[0, 1] = -0.5, 0.5
    for i in range(1, n - 1):
        Q[i, i - 1], Q[i, i + 1] = -0.5, 0.5
    Q[n - 1, n - 2], Q[n - 1, n - 1] = -0.5, 0.5
    return Q


# ---------------------------------------------------------------------------
# orthonormal bases
# ---------------------------------------------------------------------------

def jacobi_p(x, alpha: int, beta: int, n: int):
    """Jacobi polynomial of degree ``n``, orthonormal on [-1,1] with weight
    (1-x)^alpha (1+x)^beta."""
    from math import factorial

    x = np.asarray(x, dtype=float)
    gamma0 = (2 ** (alpha + beta + 1) / (alpha + beta + 1)
              * factorial(alpha) * factorial(beta) / factorial(alpha + beta))
    pim1 = np.ones_like(x) / np.sqrt(gamma0)
    if n == 0:
        return pim1
    gamma1 = (alpha + 1) * (beta + 1) / (alpha + beta + 3) * gamma0
    pi = ((alpha + beta + 2) * x / 2 + (alpha - beta) / 2) / np.sqrt(gamma1)
    aold = 2 / (2 + alpha + beta) * np.sqrt((alpha + 1) * (beta + 1) / (alpha + beta + 3))
    for i in range(1, n):
        h1 = 2 * i + alpha + beta
        anew = (2 / (h1 + 2)
                * np.sqrt((i + 1) * (i + 1 + alpha + beta) * (i + 1 + alpha)
                          * (i + 1 + beta) / (h1 + 1) / (h1 + 3)))
        bnew = -(alpha ** 2 - beta ** 2) / h1 / (h1 + 2)
        pim1, pi = pi, (-aold * pim1 + (x - bnew) * pi) / anew
        aold = anew
    return pi


def grad_jacobi_p(x, alpha: int, beta: int, n: int):
    if n == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return np.sqrt(n * (n + alpha + beta + 1)) * jacobi_p(x, alpha + 1, beta + 1, n - 1)


def _rs_to_ab(r, s):
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    a = np.full_like(r, -1.0)
    ok = np.abs(1 - s) > 1e-12
    a[ok] = 2 * (1 + r[ok]) / (1 - s[ok]) - 1
    return a, s


def _simplex_basis(r, s, i, j):
    a, b = _rs_to_ab(r, s)
    return np.sqrt(2.0) * jacobi_p(a, 0, 0, i) * jacobi_p(b, 2 * i + 1, 0, j) * (1 - b) ** i


def _grad_simplex_basis(r, s, i, j):
    a, b = _rs_to_ab(r, s)
    fa, gb = jacobi_p(a, 0, 0, i), jacobi_p(b, 2 * i + 1, 0, j)
    dfa, dgb = grad_jacobi_p(a, 0, 0, i), grad_jacobi_p(b, 2 * i + 1, 0, j)
    dr = dfa * gb
    if i > 0:
        dr = dr * (0.5 * (1 - b)) ** (i - 1)
    ds = dfa * (gb * (0.5 * (1 + a)))
    if i > 0:
        ds = ds * (0.5 * (1 - b)) ** (i - 1)
    tmp = dgb * (0.5 * (1 - b)) ** i
    if i > 0:
        tmp = tmp - 0.5 * i * gb * (0.5 * (1 - b)) ** (i - 1)
    ds = ds + fa * tmp
    return 2 ** (i + 0.5) * dr, 2 ** (i + 0.5) * ds


def simplex_vandermonde(N: int, r, s):
    """Vandermonde (and gradients) of the orthonormal total-degree basis."""
    cols, drc, dsc = [], [], []
    for i in range(N + 1):
        for j in range(N + 1 - i):
            cols.append(_simplex_basis(r, s, i, j))
            dr, ds = _grad_simplex_basis(r, s, i, j)
            drc.append(dr)
            dsc.append(ds)
    return np.column_stack(cols), np.column_stack(drc), np.column_stack(dsc)


def line_vandermonde(N: int, x):
    """Vandermonde of the orthonormal Legendre basis (and derivative)."""
    cols = [jacobi_p(x, 0, 0, i) for i in range(N + 1)]
    dcols = [grad_jacobi_p(x, 0, 0, i) for i in range(N + 1)]
    return np.column_stack(cols), np.column_stack(dcols)


# ---------------------------------------------------------------------------
# node graph for the triangle low-order operators
# ---------------------------------------------------------------------------

def node_graph(nodes: np.ndarray, weights: np.ndarray,
               alpha: float, beta: float = NODE_GRAPH_BETA) -> np.ndarray:
    """Symmetric adjacency: nodes i, j are connected when their distance is
    at most alpha * max((w_i/pi)^beta, (w_j/pi)^beta)."""
    d = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=2)
    rad = (weights / np.pi) ** beta
    thresh = alpha * np.maximum(rad[:, None], rad[None, :])
    adj = d <= thresh
    np.fill_diagonal(adj, False)
    return adj


def is_connected(adj: np.ndarray) -> bool:
    n = len(adj)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


def graph_potentials(adj: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L psi = rhs (graph Laplacian) subject to sum(psi) = 0.

    ``rhs`` must sum to zero for exact solvability; the zero-mean constraint
    removes the constant null space via a bordered system.
    """
    n = len(adj)
    L = np.diag(adj.sum(axis=1).astype(float)) - adj.astype(float)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = L
    A[:n, n] = 1.0
    A[n, :n] = 1.0
    b = np.concatenate([rhs, [0.0]])
    sol = np.linalg.solve(A, b)
    return sol[:n]


# ---------------------------------------------------------------------------
# reference operator bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefOps:
    """Operators and quadrature data on one reference element.

    Face data is stored per face node, flattened over faces: ``E`` has
    one row per face node with a single unit entry, at the volume node
    ``face_vol`` names, and ``Bdiag[k]`` holds w^f * nhat_k, the arc weight
    w^f times the unit outward reference normal, so |B| gives the weights
    and B / |B| the normals.
    """

    elem: str
    degree: int
    dim: int
    nodes: np.ndarray          # (Np, dim)
    weights: np.ndarray        # (Np,)
    Q: tuple                   # dim dense (Np, Np) high-order operators
    QL: tuple                  # dim dense (Np, Np) sparse low-order operators
    E: np.ndarray              # (Nfp_tot, Np) 0/1 extraction
    Bdiag: tuple               # dim vectors (Nfp_tot,)
    face_index: np.ndarray     # (n_faces, nfp) rows into the face-node arrays
    face_vol: np.ndarray       # (Nfp_tot,) volume node index per face node
    vander: np.ndarray         # (Np, n_modes) orthonormal modal Vandermonde
    modal_proj: np.ndarray     # (n_modes, Np) weighted L2 projection onto modes
    mode_degree: np.ndarray    # (n_modes,) polynomial degree per mode

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def n_faces(self) -> int:
        return len(self.face_index)


def _modal_projection(V, w):
    # least-squares projection onto the modal basis in the discrete norm
    G = V.T @ (w[:, None] * V)
    return np.linalg.solve(G, V.T @ np.diag(w))


@lru_cache(maxsize=None)
def build_line_ops(N: int) -> RefOps:
    x, w = lgl_rule(N + 1)
    n = N + 1
    D = lagrange_diff_matrix(x)
    Q = np.diag(w) @ D
    QL = loworder_q1d(n)
    E = np.zeros((2, n))
    E[0, 0] = 1.0
    E[1, -1] = 1.0
    Bd = np.array([-1.0, 1.0])
    face_index = np.array([[0], [1]])
    V, _ = line_vandermonde(N, x)
    return RefOps(
        elem="line", degree=N, dim=1,
        nodes=x[:, None], weights=w,
        Q=(Q,), QL=(QL,),
        E=E, Bdiag=(Bd,),
        face_index=face_index, face_vol=np.argmax(E, axis=1),
        vander=V, modal_proj=_modal_projection(V, w),
        mode_degree=np.arange(N + 1),
    )


@lru_cache(maxsize=None)
def build_quad_ops(N: int) -> RefOps:
    """Tensor product of two :func:`build_line_ops` elements on [-1,1]^2,
    node (i,j) at flat j*(N+1)+i."""
    line = build_line_ops(N)
    x, w = line.nodes[:, 0], line.weights
    n = N + 1
    M1 = np.diag(w)
    (Q1,), (QL1,) = line.Q, line.QL
    Qr = np.kron(M1, Q1)
    Qs = np.kron(Q1, M1)
    QLr = np.kron(M1, QL1)
    QLs = np.kron(QL1, M1)
    r = np.tile(x, n)
    s = np.repeat(x, n)
    w2 = np.repeat(w, n) * np.tile(w, n)

    def flat(i, j):
        return j * n + i

    # faces: bottom (s=-1), right (r=1), top (s=1), left (r=-1)
    faces = [
        ([flat(i, 0) for i in range(n)], (0.0, -1.0)),
        ([flat(n - 1, j) for j in range(n)], (1.0, 0.0)),
        ([flat(i, n - 1) for i in range(n)], (0.0, 1.0)),
        ([flat(0, j) for j in range(n)], (-1.0, 0.0)),
    ]
    nfp_tot = 4 * n
    E = np.zeros((nfp_tot, n * n))
    Br = np.zeros(nfp_tot)
    Bs = np.zeros(nfp_tot)
    face_index = np.arange(nfp_tot).reshape(4, n)
    for f, (vol_ids, nhat) in enumerate(faces):
        for m, iv in enumerate(vol_ids):
            row = f * n + m
            E[row, iv] = 1.0
            Br[row] = w[m] * nhat[0]
            Bs[row] = w[m] * nhat[1]

    V1 = line.vander
    ii = np.tile(np.arange(n), n)
    jj = np.repeat(np.arange(n), n)
    V = np.zeros((n * n, n * n))
    mode_degree = np.zeros(n * n, dtype=int)
    col = 0
    for q in range(n):
        for p in range(n):
            V[:, col] = V1[ii, p] * V1[jj, q]
            mode_degree[col] = max(p, q)
            col += 1
    return RefOps(
        elem="quad", degree=N, dim=2,
        nodes=np.column_stack([r, s]), weights=w2,
        Q=(Qr, Qs), QL=(QLr, QLs),
        E=E, Bdiag=(Br, Bs),
        face_index=face_index, face_vol=np.argmax(E, axis=1),
        vander=V, modal_proj=_modal_projection(V, w2),
        mode_degree=mode_degree,
    )


_TRI_VERTS = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
_TRI_FACES = [(0, 1, (0.0, -1.0)),
              (1, 2, (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))),
              (2, 0, (-1.0, 0.0))]


def tri_ops(N: int, table: dict) -> RefOps:
    """Triangle element of degree N from a rule in the ``TRI_TABLES`` form.

    ``table`` holds ``volume_nodes``, ``volume_weights`` and the face rule
    ``face_t``, ``face_w`` on [-1, 1]; other keys are ignored. Q_k comes
    from the skew-part solve of Hicken, Del Rey Fernandez and Zingg (SIAM
    J. Sci. Comput. 2016): S_k is the minimum-norm solution of S_k V =
    M V_k - (1/2) E^T B_k E V over skew-symmetric matrices, which exists
    when the volume rule integrates degree 2N-1 and the face rule degree
    2N exactly. QL_k is the potential flow on the node graph.

    Raises ``RuntimeError`` when a face node is missing from the volume
    nodes or the node graph is disconnected. Whether the operators meet
    the SBP identities is :func:`check_ops`'s to judge; the offline table
    generator accepts a rule on exactly these two tests.
    """
    nodes = np.array(table["volume_nodes"])
    w = np.array(table["volume_weights"])
    npts = len(w)
    tq = np.array(table["face_t"])
    wq = np.array(table["face_w"])
    nfp = N + 1

    E = np.zeros((3 * nfp, npts))
    Br = np.zeros(3 * nfp)
    Bs = np.zeros(3 * nfp)
    face_index = np.arange(3 * nfp).reshape(3, nfp)
    for f, (i0, i1, nhat) in enumerate(_TRI_FACES):
        a, b = _TRI_VERTS[i0], _TRI_VERTS[i1]
        L = np.linalg.norm(b - a)
        pts = np.outer((1 - tq) / 2, a) + np.outer((1 + tq) / 2, b)
        for m in range(nfp):
            d = np.linalg.norm(nodes - pts[m], axis=1)
            iv = int(np.argmin(d))
            if d[iv] > 1e-9:
                raise RuntimeError("face node missing from triangle table")
            row = f * nfp + m
            E[row, iv] = 1.0
            Br[row] = wq[m] * (L / 2) * nhat[0]
            Bs[row] = wq[m] * (L / 2) * nhat[1]

    V, Vr, Vs = simplex_vandermonde(N, nodes[:, 0], nodes[:, 1])
    M = np.diag(w)
    iu, ju = np.triu_indices(npts, k=1)
    nb = V.shape[1]
    A = np.zeros((npts * nb, len(iu)))
    for col, (i, j) in enumerate(zip(iu, ju)):
        A[i * nb:(i + 1) * nb, col] = V[j]
        A[j * nb:(j + 1) * nb, col] = -V[i]

    Qs_out = []
    for Bd, Vk in ((Br, Vr), (Bs, Vs)):
        EBE = E.T @ (Bd[:, None] * E)
        R = M @ Vk - 0.5 * EBE @ V
        svec, *_ = np.linalg.lstsq(A, R.reshape(-1), rcond=None)
        S = np.zeros((npts, npts))
        S[iu, ju] = svec
        S -= S.T
        Qs_out.append(S + 0.5 * EBE)

    # low-order: potential flow on the node graph
    adj = node_graph(nodes, w, NODE_GRAPH_ALPHA)
    if not is_connected(adj):
        raise RuntimeError(f"triangle node graph disconnected for N={N}")
    QLs_out = []
    for Bd in (Br, Bs):
        EBE = E.T @ (Bd[:, None] * E)
        psi = graph_potentials(adj, 0.5 * EBE @ np.ones(npts))
        S = np.where(adj, psi[None, :] - psi[:, None], 0.0)
        QLs_out.append(S + 0.5 * EBE)

    deg = np.concatenate([[i + j for j in range(N + 1 - i)] for i in range(N + 1)])
    return RefOps(
        elem="tri", degree=N, dim=2,
        nodes=nodes, weights=w,
        Q=tuple(Qs_out), QL=tuple(QLs_out),
        E=E, Bdiag=(Br, Bs),
        face_index=face_index, face_vol=np.argmax(E, axis=1),
        vander=V, modal_proj=_modal_projection(V, w),
        mode_degree=deg,
    )


@lru_cache(maxsize=None)
def build_tri_ops(N: int) -> RefOps:
    """Triangle element of degree N from the shipped rule ``TRI_TABLES[N]``
    (:func:`tri_ops`)."""
    if N not in TRI_TABLES:
        raise ValueError(f"no triangle operator table for N={N}")
    return tri_ops(N, TRI_TABLES[N])


def build_ops(elem: str, N: int) -> RefOps:
    """Reference operators for ``elem`` in {line, quad, tri} at degree N."""
    if elem == "line":
        return build_line_ops(N)
    if elem == "quad":
        return build_quad_ops(N)
    if elem == "tri":
        return build_tri_ops(N)
    raise ValueError(f"unknown element type {elem!r}")


# ---------------------------------------------------------------------------
# identity check
# ---------------------------------------------------------------------------

def check_ops(ops: RefOps) -> list:
    """The reference-operator residuals, as (name, value, tolerance).

    Per direction k: the SBP identity Q_k + Q_k^T = E^T B_k E for Q and
    QL, conservation Q_k 1 = 0 for both, and exact differentiation of the
    monomials of degree N by D_k = M^{-1} Q_k (relative to the monomial's
    largest nodal value). Last, whether every row of E is one-hot. The
    operators pass when every value is at most its tolerance.
    """
    ones = np.ones(ops.n_nodes)
    checks = []
    for k in range(ops.dim):
        EBE = ops.E.T @ (ops.Bdiag[k][:, None] * ops.E)
        checks += [
            (f"SBP identity Q[{k}]",
             np.abs(ops.Q[k] + ops.Q[k].T - EBE).max(), 1e-12),
            (f"SBP identity QL[{k}]",
             np.abs(ops.QL[k] + ops.QL[k].T - EBE).max(), 1e-12),
            (f"conservation Q[{k}]@1", np.abs(ops.Q[k] @ ones).max(), 1e-13),
            (f"conservation QL[{k}]@1", np.abs(ops.QL[k] @ ones).max(),
             1e-13),
        ]
        checks.append((f"derivative exactness D[{k}], degree {ops.degree}",
                       _exactness(ops, k), 1e-10))
    ok01 = set(np.unique(ops.E)) <= {0.0, 1.0} \
        and bool(np.all(ops.E.sum(axis=1) == 1.0))
    checks.append(("extraction rows one-hot", 0.0 if ok01 else 1.0, 0.5))
    return checks


def _exactness(ops: RefOps, k: int) -> float:
    N, r = ops.degree, ops.nodes
    if ops.dim == 1:
        monos = [(a,) for a in range(N + 1)]
    elif ops.elem == "tri":
        monos = [(a, b) for a in range(N + 1) for b in range(N + 1 - a)]
    else:
        monos = [(a, b) for a in range(N + 1) for b in range(N + 1)]
    worst = 0.0
    for m in monos:
        u = np.ones(ops.n_nodes)
        du = np.zeros(ops.n_nodes)
        for d, a in enumerate(m):
            u = u * r[:, d] ** a
        a = m[k]
        if a:
            du = a * r[:, k] ** (a - 1)
            for d, b in enumerate(m):
                if d != k:
                    du = du * r[:, d] ** b
        scale = max(np.abs(u).max(), 1.0)
        err = np.abs((ops.Q[k] @ u) / ops.weights - du).max() / scale
        worst = max(worst, err)
    return worst
