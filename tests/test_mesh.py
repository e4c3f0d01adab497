"""Mesh construction: connectivity, geometry factors, physical operators."""

import numpy as np
import pytest

from posdg.mesh import interval_mesh, rect_mesh

MESHES_2D = [
    ("quad", 2, (4, 3)), ("quad", 3, (3, 5)), ("quad", 4, (2, 2)),
    ("tri", 1, (3, 3)), ("tri", 2, (4, 2)), ("tri", 3, (2, 3)), ("tri", 4, (3, 2)),
]


def make2d(elem, N, KxKy, periodic=(False, False), box=(0.0, 2.0, -1.0, 1.0)):
    return rect_mesh(elem, box, KxKy[0], KxKy[1], N, periodic=periodic)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_interval_basic():
    m = interval_mesh(-1.0, 3.0, 8, 3)
    assert m.n_elements == 8
    assert abs(m.total_mass - 4.0) < 1e-13
    assert m.xy.min() == -1.0 and m.xy.max() == 3.0
    # interior interfaces matched, two boundary nodes
    assert (m.fpartner < 0).sum() == 2
    assert m.ftag[0, 0] == 1 and m.ftag[-1, 1] == 1
    assert (m.ftag > 0).sum() == 2


def test_interval_periodic():
    m = interval_mesh(0.0, 1.0, 5, 2, periodic=True)
    assert np.all(m.fpartner >= 0)
    # left end of element 0 pairs with right end of the last element
    flat = m.fpartner.reshape(-1)
    assert flat[0] == 5 * 2 - 1


def test_interval_partner_coords_match():
    m = interval_mesh(0.0, 1.0, 7, 4)
    fxy = m.fxy.reshape(-1, 1)
    flat = m.fpartner.reshape(-1)
    ok = flat >= 0
    assert np.abs(fxy[ok] - fxy[flat[ok]]).max() < 1e-12


def test_interval_classify():
    m = interval_mesh(0.0, 1.0, 4, 2,
                      classify=lambda x: np.where(x[:, 0] < 0.5, 7, 9))
    assert m.ftag[0, 0] == 7
    assert m.ftag[-1, 1] == 9


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_total_mass_is_area(elem, N, K):
    m = make2d(elem, N, K)
    assert abs(m.total_mass - 4.0) < 1e-12


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_partner_coordinates_coincide(elem, N, K):
    m = make2d(elem, N, K)
    fxy = m.fxy.reshape(-1, 2)
    flat = m.fpartner.reshape(-1)
    ok = flat >= 0
    assert ok.sum() > 0
    assert np.abs(fxy[ok] - fxy[flat[ok]]).max() < 1e-12
    # matching is an involution and never self-referential
    assert np.all(flat[flat[ok]] == np.nonzero(ok)[0])


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_partner_normals_opposite(elem, N, K):
    m = make2d(elem, N, K)
    nrm = m.fnormal.reshape(-1, 2)
    wsj = m.fwsJ.reshape(-1)
    flat = m.fpartner.reshape(-1)
    ok = flat >= 0
    assert np.abs(nrm[ok] + nrm[flat[ok]]).max() < 1e-12
    assert np.abs(wsj[ok] - wsj[flat[ok]]).max() < 1e-12


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_boundary_count(elem, N, K):
    m = make2d(elem, N, K)
    nfp = N + 1
    expect = 2 * (K[0] + K[1]) * nfp
    assert (m.fpartner.reshape(-1) < 0).sum() == expect
    assert ((m.ftag > 0) == (m.fpartner < 0)).all()


@pytest.mark.parametrize("elem", ["quad", "tri"])
def test_fully_periodic_has_no_boundary(elem):
    m = make2d(elem, 2, (4, 3), periodic=(True, True))
    assert np.all(m.fpartner >= 0)
    assert np.all(m.ftag == 0)


@pytest.mark.parametrize("elem", ["quad", "tri"])
def test_partial_periodicity(elem):
    m = make2d(elem, 2, (4, 3), periodic=(True, False))
    # only the y boundaries remain
    assert (m.fpartner.reshape(-1) < 0).sum() == 2 * 4 * 3


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_element_closure(elem, N, K):
    # sum of wsJ * n over each element's surface vanishes (discrete GCL)
    m = make2d(elem, N, K)
    total = np.einsum("kf,kfd->kd", m.fwsJ, m.fnormal)
    assert np.abs(total).max() < 1e-12


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_surface_length(elem, N, K):
    m = make2d(elem, N, K)
    # global boundary length = perimeter of the box
    bdry = (m.fpartner < 0).reshape(-1)
    assert abs(m.fwsJ.reshape(-1)[bdry].sum() - (2 * (2.0 + 2.0))) < 1e-12


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_physical_sbp_and_exactness(elem, N, K):
    m = make2d(elem, N, K)
    ops = m.ops
    for gc in m.classes:
        for d in range(2):
            Bd = ops.E.T @ (gc.wsJ * gc.normals[:, d])
            EBE = np.diag(Bd)
            assert np.abs(gc.Qx[d] + gc.Qx[d].T - EBE).max() < 1e-12
            assert np.abs(gc.QLx[d] + gc.QLx[d].T - EBE).max() < 1e-12
            assert np.abs(gc.Qx[d] @ np.ones(ops.n_nodes)).max() < 1e-12

    # derivative of a physical polynomial, element by element
    rng = np.random.default_rng(0)
    monos = [(a, b) for a in range(N + 1) for b in range(N + 1 - a)]
    coeff = rng.normal(size=len(monos))
    x, y = m.xy[..., 0], m.xy[..., 1]
    u = sum(c * x ** a * y ** b for c, (a, b) in zip(coeff, monos))
    dux = sum(c * a * x ** max(a - 1, 0) * y ** b for c, (a, b) in zip(coeff, monos) if a)
    duy = sum(c * b * x ** a * y ** max(b - 1, 0) for c, (a, b) in zip(coeff, monos) if b)
    for e in range(m.n_elements):
        gc = m.classes[m.class_id[e]]
        got_x = (gc.Qx[0] @ u[e]) / gc.mass
        got_y = (gc.Qx[1] @ u[e]) / gc.mass
        assert np.abs(got_x - dux[e]).max() < 1e-9
        assert np.abs(got_y - duy[e]).max() < 1e-9


def test_tri_two_geometry_classes():
    m = make2d("tri", 2, (3, 3))
    assert len(m.classes) == 2
    assert m.n_elements == 18
    assert np.isclose(m.classes[0].J, m.classes[1].J)
    assert np.allclose(m.classes[0].G, -m.classes[1].G)


def test_low_order_pairs_match_skew():
    # the one pair graph rebuilds both skew parts; its scatter and low-order
    # subset are consistent with the pair list
    for elem in ("line", "quad", "tri"):
        for N in range(1, 5):
            m = (interval_mesh(0.0, 2.0, 2, N) if elem == "line"
                 else make2d(elem, N, (2, 2)))
            for gc in m.classes:
                pi, pj = gc.pair_i, gc.pair_j
                assert np.all(pi < pj)
                for d in range(m.dim):
                    for Q, entries, scale in ((gc.QLx[d], gc.pair_n[:, d], 0.5),
                                              (gc.Qx[d], gc.pair_s[d], 1.0)):
                        S = scale * (Q - Q.T)
                        dense = np.zeros_like(S)
                        dense[pi, pj] = entries
                        dense -= dense.T
                        assert np.abs(dense - S).max() < 1e-14, (elem, N)
                low = np.zeros(len(pi), dtype=bool)
                low[gc.pair_low] = True
                assert np.all(np.any(gc.pair_n[low] != 0.0, axis=1))
                assert np.all(gc.pair_n[~low] == 0.0)
                cols = np.arange(len(pi))
                assert np.all(gc.scatter[pi, cols] == 1.0)
                assert np.all(gc.scatter[pj, cols] == -1.0)
                assert np.all(np.abs(gc.scatter).sum(axis=0) == 2.0)


def test_classify_2d():
    def classify(p):
        return np.where(np.abs(p[:, 1] - (-1.0)) < 1e-12, 2, 1)

    m = rect_mesh("quad", (0.0, 2.0, -1.0, 1.0), 3, 3, 2, classify=classify)
    tags = m.ftag.reshape(-1)
    bott = np.abs(m.fxy.reshape(-1, 2)[:, 1] + 1.0) < 1e-12
    bdry = m.fpartner.reshape(-1) < 0
    assert np.all(tags[bott & bdry] == 2)
    assert np.all(tags[~bott & bdry] == 1)


def test_gather_exterior():
    m = make2d("quad", 2, (3, 2), periodic=(True, True))
    rng = np.random.default_rng(1)
    uf = rng.normal(size=(m.n_elements * m.n_face_nodes, 4))
    ue = m.gather_exterior(uf)
    flat = m.fpartner.reshape(-1)
    assert np.allclose(ue, uf[flat])
