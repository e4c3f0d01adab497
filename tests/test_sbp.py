"""Reference-operator identities: quadrature oracles, SBP structure,
polynomial exactness, and low-order sparsity/connectivity."""

import numpy as np
import pytest

from posdg._tri_tables import TRI_TABLES
from posdg.sbp import (
    build_ops,
    graph_potentials,
    is_connected,
    jacobi_p,
    legendre,
    lgl_rule,
    loworder_q1d,
    node_graph,
    simplex_vandermonde,
)

ALL_ELEMS = [("line", N) for N in range(1, 6)] + \
            [("quad", N) for N in range(1, 6)] + \
            [("tri", N) for N in range(1, 5)]


# ---------------------------------------------------------------------------
# one-dimensional rules against frozen values and quadrature checks
# ---------------------------------------------------------------------------

def test_lgl_frozen_n2():
    x, w = lgl_rule(3)
    assert np.allclose(x, [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(w, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)


def test_lgl_frozen_n4():
    x, w = lgl_rule(5)
    assert abs(w[0] - 0.1) < 1e-15
    assert abs(w[-1] - 0.1) < 1e-15
    assert abs(x[1] + np.sqrt(3 / 7)) < 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_lgl_quadrature_exactness(n):
    # n-point Lobatto integrates degree 2n-3 exactly
    x, w = lgl_rule(n)
    assert abs(w.sum() - 2.0) < 1e-14
    for p in range(2 * n - 2):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(w @ x**p - exact) < 1e-13, f"degree {p}"


def test_legendre_against_numpy():
    x = np.linspace(-1, 1, 17)
    for n in range(7):
        ref = np.polynomial.legendre.Legendre.basis(n)
        p, dp = legendre(n, x)
        assert np.allclose(p, ref(x), atol=1e-13)
        assert np.allclose(dp, ref.deriv()(x), atol=1e-12)


def test_jacobi_orthonormal():
    from scipy.special import roots_jacobi

    for alpha, beta in ((0, 0), (1, 1), (3, 0)):
        x, w = roots_jacobi(12, alpha, beta)
        for m in range(5):
            for n in range(5):
                val = w @ (jacobi_p(x, alpha, beta, m) * jacobi_p(x, alpha, beta, n))
                assert abs(val - (1.0 if m == n else 0.0)) < 1e-12


def test_simplex_basis_orthonormal():
    # integrate products over the reference triangle with a dense tensor rule
    from numpy.polynomial.legendre import leggauss

    xg, wg = leggauss(24)
    a, b = np.meshgrid(xg, xg, indexing="ij")
    wab = np.outer(wg, wg) * (1 - b) / 2
    r = (1 + a) * (1 - b) / 2 - 1
    s = b
    V, _, _ = simplex_vandermonde(3, r.ravel(), s.ravel())
    G = V.T @ (wab.ravel()[:, None] * V)
    assert np.abs(G - np.eye(V.shape[1])).max() < 1e-12


def test_simplex_gradient_consistency():
    rng = np.random.default_rng(11)
    r = rng.uniform(-1, 0.8, 40)
    s = rng.uniform(-1, -0.1, 40)
    h = 1e-6
    _, Vr, Vs = simplex_vandermonde(4, r, s)
    Vp, _, _ = simplex_vandermonde(4, r + h, s)
    Vm, _, _ = simplex_vandermonde(4, r - h, s)
    assert np.abs((Vp - Vm) / (2 * h) - Vr).max() < 1e-7
    Vp, _, _ = simplex_vandermonde(4, r, s + h)
    Vm, _, _ = simplex_vandermonde(4, r, s - h)
    assert np.abs((Vp - Vm) / (2 * h) - Vs).max() < 1e-7


# ---------------------------------------------------------------------------
# operator structure shared by both families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elem,N", ALL_ELEMS)
def test_sbp_identity(elem, N):
    ops = build_ops(elem, N)
    for k in range(ops.dim):
        EBE = ops.E.T @ (ops.Bdiag[k][:, None] * ops.E)
        assert np.abs(ops.Q[k] + ops.Q[k].T - EBE).max() < 1e-12
        assert np.abs(ops.QL[k] + ops.QL[k].T - EBE).max() < 1e-12


@pytest.mark.parametrize("elem,N", ALL_ELEMS)
def test_constant_annihilation(elem, N):
    ops = build_ops(elem, N)
    ones = np.ones(ops.n_nodes)
    for k in range(ops.dim):
        assert np.abs(ops.Q[k] @ ones).max() < 1e-13
        assert np.abs(ops.QL[k] @ ones).max() < 1e-13


@pytest.mark.parametrize("elem,N", ALL_ELEMS)
def test_extraction_is_zero_one(elem, N):
    ops = build_ops(elem, N)
    E = ops.E
    assert set(np.unique(E)) <= {0.0, 1.0}
    assert np.all(E.sum(axis=1) == 1.0)
    # each row's unit entry sits at its face node's volume node
    assert np.array_equal(E, np.eye(ops.n_nodes)[ops.face_vol])


@pytest.mark.parametrize("elem,N", ALL_ELEMS)
def test_polynomial_exactness(elem, N):
    ops = build_ops(elem, N)
    Minv = 1.0 / ops.weights
    r = ops.nodes
    if ops.dim == 1:
        monos = [(a,) for a in range(N + 1)]
    elif elem == "tri":
        monos = [(a, b) for a in range(N + 1) for b in range(N + 1 - a)]
    else:
        monos = [(a, b) for a in range(N + 1) for b in range(N + 1)]
    for m in monos:
        if ops.dim == 1:
            a, = m
            u = r[:, 0] ** a
            exact = [a * r[:, 0] ** (a - 1) if a else np.zeros_like(u)]
        else:
            a, b = m
            u = r[:, 0] ** a * r[:, 1] ** b
            exact = [
                a * r[:, 0] ** (a - 1) * r[:, 1] ** b if a else np.zeros_like(u),
                b * r[:, 0] ** a * r[:, 1] ** (b - 1) if b else np.zeros_like(u),
            ]
        scale = max(np.abs(u).max(), 1.0)
        for k in range(ops.dim):
            err = np.abs(Minv * (ops.Q[k] @ u) - exact[k]).max()
            assert err < 1e-10 * scale, f"monomial {m}, direction {k}"


@pytest.mark.parametrize("elem,N", ALL_ELEMS)
def test_volume_quadrature(elem, N):
    ops = build_ops(elem, N)
    vol = {"line": 2.0, "quad": 4.0, "tri": 2.0}[elem]
    assert abs(ops.weights.sum() - vol) < 1e-13
    assert np.all(ops.weights > 0)


@pytest.mark.parametrize("elem,N", ALL_ELEMS)
def test_face_quadrature(elem, N):
    # per-face arc weights integrate constants to the face length
    ops = build_ops(elem, N)
    if elem == "line":
        lengths = [1.0, 1.0]
    elif elem == "quad":
        lengths = [2.0] * 4
    else:
        lengths = [2.0, 2.0 * np.sqrt(2.0), 2.0]
    # Bdiag holds w^f nhat: |B| gives the arc weights, B / |B| the normals
    B = np.stack(ops.Bdiag)
    weights = np.linalg.norm(B, axis=0)
    normals = (B / weights).T
    for f in range(ops.n_faces):
        rows = ops.face_index[f]
        assert abs(weights[rows].sum() - lengths[f]) < 1e-13
        n = normals[rows]
        assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() < 1e-13
        assert np.abs(n - n[0]).max() < 1e-13  # straight faces


@pytest.mark.parametrize("elem,N", ALL_ELEMS)
def test_low_order_sparser(elem, N):
    ops = build_ops(elem, N)
    if elem == "line" and N == 1:
        return  # two nodes: both operators are the same stencil
    for k in range(ops.dim):
        nnz_l = (np.abs(ops.QL[k]) > 1e-14).sum()
        nnz_h = (np.abs(ops.Q[k]) > 1e-14).sum()
        assert nnz_l <= nnz_h


def test_loworder_q1d_structure():
    Q = loworder_q1d(5)
    assert np.abs(Q.sum(axis=1)).max() == 0.0
    B = np.zeros((5, 5))
    B[0, 0], B[-1, -1] = -1.0, 1.0
    assert np.abs(Q + Q.T - B).max() == 0.0
    # exact for linears on any node set follows from the stencil only at
    # uniform spacing; here only the SBP structure matters


@pytest.mark.parametrize("N", range(1, 5))
def test_tri_node_graph_connected(N):
    ops = build_ops("tri", N)
    from posdg.sbp import NODE_GRAPH_ALPHA

    adj = node_graph(ops.nodes, ops.weights, NODE_GRAPH_ALPHA)
    assert is_connected(adj)
    assert np.all(adj == adj.T)
    assert not np.any(np.diag(adj))


def test_graph_potentials_solves_laplacian():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (12, 2))
    w = np.full(12, 2.0 / 12)
    adj = node_graph(pts, w, 10.0)
    assert is_connected(adj)
    rhs = rng.normal(size=12)
    rhs -= rhs.mean()
    psi = graph_potentials(adj, rhs)
    L = np.diag(adj.sum(axis=1).astype(float)) - adj.astype(float)
    assert np.abs(L @ psi - rhs).max() < 1e-10
    assert abs(psi.sum()) < 1e-10


@pytest.mark.parametrize("N", range(1, 5))
def test_tri_face_nodes_on_boundary(N):
    ops = build_ops("tri", N)
    pts = ops.nodes[ops.face_vol]
    # every face node sits on r=-1, s=-1, or r+s=0
    on_b = (np.abs(pts[:, 1] + 1) < 1e-12) | (np.abs(pts[:, 0] + 1) < 1e-12) \
        | (np.abs(pts.sum(axis=1)) < 1e-12)
    assert np.all(on_b)


@pytest.mark.parametrize("N", range(1, 5))
def test_tri_subcells_are_a_delaunay_triangulation(N):
    # the output subcells cover the convex hull of the nodes, use every
    # node, and leave every node outside or on each subcell's circumcircle;
    # the face nodes are Gauss points, so the hull is smaller than the
    # reference triangle
    from scipy.spatial import ConvexHull

    nodes = build_ops("tri", N).nodes
    tris = np.array(TRI_TABLES[N]["subcells"])
    assert set(tris.ravel()) == set(range(len(nodes)))
    a, b, c = (nodes[tris[:, k]] for k in range(3))
    ab, ac = b - a, c - a
    cross = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    assert np.all(cross != 0.0)
    assert abs(0.5 * np.abs(cross).sum() - ConvexHull(nodes).volume) < 1e-12
    # circumcenter a + x with 2 x . ab = |ab|^2 and 2 x . ac = |ac|^2
    rhs = np.stack([(ab * ab).sum(axis=1), (ac * ac).sum(axis=1)], axis=1)
    x = np.linalg.solve(2.0 * np.stack([ab, ac], axis=1), rhs[..., None])[..., 0]
    center, radius = a + x, np.linalg.norm(x, axis=1)
    dist = np.linalg.norm(nodes[None, :, :] - center[:, None, :], axis=2)
    assert np.all(dist >= radius[:, None] - 1e-12)


@pytest.mark.parametrize("elem,N", ALL_ELEMS)
def test_modal_projection_roundtrip(elem, N):
    # projecting a polynomial of the basis span must reproduce it exactly
    ops = build_ops(elem, N)
    rng = np.random.default_rng(N)
    c = rng.normal(size=ops.vander.shape[1])
    u = ops.vander @ c
    assert np.abs(ops.modal_proj @ u - c).max() < 1e-10
    assert ops.mode_degree.max() == N
