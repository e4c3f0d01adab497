"""Mesh construction: connectivity, geometry factors, physical operators."""

import dataclasses
import itertools

import numpy as np
import pytest

from oracles import connect_ref
from posdg.cases import CASES, get_case
from posdg.mesh import Mesh, _connect, interval_mesh, rect_mesh
from posdg.timestepping import Stepper, advance

MESHES_2D = [
    ("quad", 2, (4, 3)), ("quad", 3, (3, 5)), ("quad", 4, (2, 2)),
    ("tri", 1, (3, 3)), ("tri", 2, (4, 2)), ("tri", 3, (2, 3)), ("tri", 4, (3, 2)),
]


def make2d(elem, N, KxKy, periodic=(False, False), box=(0.0, 2.0, -1.0, 1.0)):
    return rect_mesh(elem, box, KxKy[0], KxKy[1], N, periodic=periodic)


def boundary(m):
    """The boundary slots, slot-major: the fixed points of slot_exterior."""
    return m.slot_exterior == np.arange(len(m.slot_exterior))


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_interval_basic():
    m = interval_mesh(-1.0, 3.0, 8, 3)
    assert m.n_elements == 8
    assert abs(m.total_mass - 4.0) < 1e-13
    assert m.xy.min() == -1.0 and m.xy.max() == 3.0
    # interior interfaces matched, two boundary nodes: slot 0 of element 0
    # and slot 1 of the last element, the first and last slots
    assert boundary(m).sum() == 2
    assert m.slot_tag[0] == 1 and m.slot_tag[-1] == 1
    assert (m.slot_tag > 0).sum() == 2


def test_interval_periodic():
    m = interval_mesh(0.0, 1.0, 5, 2, periodic=True)
    assert not boundary(m).any()
    # left end of element 0 pairs with right end of the last element, slot
    # 1 of element 4 at 1 * K + 4
    assert m.slot_exterior[0] == 1 * 5 + 4


def test_interval_partner_coords_match():
    m = interval_mesh(0.0, 1.0, 7, 4)
    ok = ~boundary(m)
    assert np.abs(m.slot_xy[ok] - m.slot_xy[m.slot_exterior[ok]]).max() < 1e-12


def test_interval_classify():
    m = interval_mesh(0.0, 1.0, 4, 2,
                      classify=lambda x: np.where(x[:, 0] < 0.5, 7, 9))
    assert m.slot_tag[0] == 7
    assert m.slot_tag[-1] == 9


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
    ext = m.slot_exterior
    ok = ~boundary(m)
    assert ok.sum() > 0
    assert np.abs(m.slot_xy[ok] - m.slot_xy[ext[ok]]).max() < 1e-12
    # matching is an involution whose fixed points are exactly the tagged
    # boundary slots
    assert np.array_equal(ext[ext], np.arange(len(ext)))
    assert np.array_equal(~ok, m.slot_tag > 0)


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_partner_normals_opposite(elem, N, K):
    m = make2d(elem, N, K)
    nrm, wsj = m.slot_normal, m.slot_wsJ
    ok = ~boundary(m)
    ext = m.slot_exterior[ok]
    assert np.abs(nrm[:, ok] + nrm[:, ext]).max() < 1e-12
    assert np.abs(wsj[ok] - wsj[ext]).max() < 1e-12


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_boundary_count(elem, N, K):
    m = make2d(elem, N, K)
    nfp = N + 1
    expect = 2 * (K[0] + K[1]) * nfp
    assert boundary(m).sum() == expect
    assert ((m.slot_tag > 0) == boundary(m)).all()


@pytest.mark.parametrize("elem", ["quad", "tri"])
def test_fully_periodic_has_no_boundary(elem):
    m = make2d(elem, 2, (4, 3), periodic=(True, True))
    assert not boundary(m).any()
    assert np.all(m.slot_tag == 0)


@pytest.mark.parametrize("elem", ["quad", "tri"])
def test_partial_periodicity(elem):
    m = make2d(elem, 2, (4, 3), periodic=(True, False))
    # only the y boundaries remain
    assert boundary(m).sum() == 2 * 4 * 3


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_element_closure(elem, N, K):
    # sum of wsJ * n over each element's surface vanishes (discrete GCL)
    m = make2d(elem, N, K)
    total = (m.slot_wsJ * m.slot_normal).reshape(
        m.dim, m.n_face_nodes, m.n_elements).sum(axis=1)
    assert np.abs(total).max() < 1e-12


@pytest.mark.parametrize("elem,N,K", MESHES_2D)
def test_surface_length(elem, N, K):
    m = make2d(elem, N, K)
    # global boundary length = perimeter of the box
    assert abs(m.slot_wsJ[boundary(m)].sum() - (2 * (2.0 + 2.0))) < 1e-12


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
    # the one pair graph rebuilds both skew parts; the low-order pairs lead
    # it, each block in upper-triangle order, and its scatter is consistent
    # with the pair list
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
                low[:gc.n_low] = True
                assert np.all(np.any(gc.pair_n[low] != 0.0, axis=1))
                assert np.all(gc.pair_n[~low] == 0.0)
                for block in (low, ~low):
                    key = pi[block] * m.ops.n_nodes + pj[block]
                    assert np.all(np.diff(key) > 0), (elem, N)
                cols = np.arange(len(pi))
                assert np.all(gc.scatter[pi, cols] == 1.0)
                assert np.all(gc.scatter[pj, cols] == -1.0)
                assert np.all(np.abs(gc.scatter).sum(axis=0) == 2.0)


def _meshes_of_every_class_count():
    for elem in ("line", "quad", "tri"):
        for N in range(1, 5):
            yield elem, N, (interval_mesh(0.0, 2.0, 2, N) if elem == "line"
                            else make2d(elem, N, (2, 2)))


def test_mesh_pair_graph_equals_every_class_graph():
    # one graph for the whole mesh; the weights are each element's class's
    for elem, N, m in _meshes_of_every_class_count():
        for gc in m.classes:
            for name in ("pair_i", "pair_j", "n_low", "scatter"):
                assert np.array_equal(getattr(m, name), getattr(gc, name)), \
                    (elem, N, name)
        npairs = len(m.pair_i)
        assert m.pair_s.shape == (m.dim, npairs, m.n_elements)
        for k, c in enumerate(m.class_id):
            assert np.array_equal(m.pair_s[:, :, k], m.classes[c].pair_s)


def test_mesh_rejects_classes_with_different_pair_graphs():
    m = make2d("tri", 2, (2, 2))
    gc0, gc1 = m.classes
    for other in (dataclasses.replace(gc1, n_low=gc1.n_low - 1),
                  dataclasses.replace(gc1, pair_j=gc1.pair_j[::-1])):
        with pytest.raises(ValueError, match="classes 0 and 1"):
            Mesh(elem=m.elem, N=m.N, ops=m.ops, xy=m.xy, class_id=m.class_id,
                 classes=[gc0, other], extent=m.extent,
                 periodic=m.periodic, classify=m.classify)


def test_classify_2d():
    def classify(p):
        return np.where(np.abs(p[:, 1] - (-1.0)) < 1e-12, 2, 1)

    m = rect_mesh("quad", (0.0, 2.0, -1.0, 1.0), 3, 3, 2, classify=classify)
    tags = m.slot_tag
    bott = np.abs(m.slot_xy[:, 1] + 1.0) < 1e-12
    bdry = boundary(m)
    assert np.all(tags[bott & bdry] == 2)
    assert np.all(tags[~bott & bdry] == 1)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("elem,N", [(elem, N) for elem in ("quad", "tri")
                                    for N in (1, 2, 3, 4)]
                         + [("line", 1), ("line", 3)])
def test_partner_slots_have_negated_normals_and_equal_weights(elem, N,
                                                              periodic):
    # exact, bit for bit: the low-order wavespeeds reuse a slot's own end
    # for its partner's exterior state
    if elem == "line":
        mesh = interval_mesh(0.0, 1.3, 5, N, periodic=periodic)
    else:
        mesh = make2d(elem, N, (3, 2), periodic=(periodic, periodic),
                      box=(0.0, 2.0, -1.0, 0.6))
    ok = ~boundary(mesh)
    assert ok.sum() > 0
    ext = mesh.slot_exterior[ok]
    nrm, wsj = mesh.slot_normal, mesh.slot_wsJ
    assert np.array_equal(nrm[:, ext], -nrm[:, ok])
    assert np.array_equal(wsj[ext], wsj[ok])


def test_gather_exterior():
    # the slot arrays are slot-major: slot s of element k at s * K + k
    m = make2d("quad", 2, (3, 2), periodic=(True, True))
    K, Nfp = m.n_elements, m.n_face_nodes
    for s, k in itertools.product(range(Nfp), range(K)):
        assert np.array_equal(m.slot_xy[s * K + k], m.xy[k, m.ops.face_vol[s]])
    # each exterior slot sits at the same point, up to a period
    shift = m.slot_xy[m.slot_exterior] - m.slot_xy
    for d, period in enumerate((2.0, 2.0)):
        whole = np.round(shift[:, d] / period)
        assert np.abs(shift[:, d] - whole * period).max() < 1e-12


# ---------------------------------------------------------------------------
# face matching against the KD-tree oracle
# ---------------------------------------------------------------------------

def _face_arrays(m):
    """(face nodes, face centroids, normals), flat (Nfp * K, dim) and
    slot-major, as the mesh passes them to ``_connect``."""
    fxy = m.slot_xy.reshape(m.n_face_nodes, m.n_elements, m.dim)
    cent = np.empty_like(fxy)
    for rows in m.ops.face_index:
        cent[rows] = fxy[rows].mean(axis=0)
    return m.slot_xy, cent.reshape(-1, m.dim), m.slot_normal.T


def _assert_matches_oracle(m, periodic, classify=None):
    exterior, tag = connect_ref(*_face_arrays(m), m.extent, periodic,
                                classify)
    assert np.array_equal(m.slot_exterior, exterior)
    assert np.array_equal(m.slot_tag, tag)


@pytest.mark.parametrize("elem", ["line", "quad", "tri"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_connect_matches_kdtree_oracle(elem, N):
    def classify(p):
        return np.where(p[:, 0] < 0.5, 2, 3)

    for K in (2, 5, 8):
        if elem == "line":
            for periodic in (False, True):
                m = interval_mesh(0.0, 3.0, K, N, periodic=periodic,
                                  classify=classify)
                _assert_matches_oracle(m, (periodic,), classify)
            continue
        for periodic in itertools.product((False, True), repeat=2):
            # a non-square box with non-square elements
            m = rect_mesh(elem, (0.0, 3.0, -1.0, 0.5), K, K + 1, N,
                          periodic=periodic, classify=classify)
            _assert_matches_oracle(m, periodic, classify)


@pytest.mark.parametrize("name", sorted(CASES))
def test_connect_matches_kdtree_oracle_on_catalog_meshes(name):
    case = get_case(name)
    for elem in (("line",) if case.dim == 1 else ("quad", "tri")):
        m = case.build_mesh(2, 2, elem=elem)
        _assert_matches_oracle(m, case.periodic, case.classify)


def test_connect_tolerates_coordinate_jitter():
    m = rect_mesh("quad", (0.0, 3.0, -1.0, 0.5), 5, 4, 3,
                  periodic=(True, False))
    fxy, cent, nrm = _face_arrays(m)
    rng = np.random.default_rng(3)
    jitter = 1e-12 * 3.0     # 1e-12 of the larger span
    fxy = fxy + jitter * rng.uniform(-1.0, 1.0, fxy.shape)
    cent = cent + jitter * rng.uniform(-1.0, 1.0, cent.shape)
    exterior, tag = _connect(fxy, cent, nrm, m.extent, (True, False), None)
    assert np.array_equal(exterior, m.slot_exterior)
    assert np.array_equal(tag, m.slot_tag)


def test_connect_rejects_asymmetric_match():
    # a second copy of element 0, as element K, offers every face node of
    # element 0 two partners, so the match cannot be an involution
    m = rect_mesh("quad", (0.0, 2.0, 0.0, 1.0), 3, 2, 2)
    Nfp, K = m.n_face_nodes, m.n_elements

    def with_copy(a):
        a = a.reshape(Nfp, K, m.dim)
        return np.concatenate([a, a[:, :1]], axis=1).reshape(-1, m.dim)

    fxy, cent, nrm = (with_copy(a) for a in _face_arrays(m))
    for connect in (_connect, connect_ref):
        with pytest.raises(RuntimeError, match="not symmetric"):
            connect(fxy, cent, nrm, m.extent, (False, False), None)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("Kx,Ky", [(1, 3), (3, 1), (1, 1)])
def test_one_element_wide_periodic_quads_connect(N, Kx, Ky):
    # wrapping node coordinates used to give both corners of a face one
    # period long the same key
    box = (0.0, 2.0, -1.0, 0.5)
    m = rect_mesh("quad", box, Kx, Ky, N, periodic=(True, True))
    ext = m.slot_exterior
    assert not boundary(m).any()
    assert np.all(m.slot_tag == 0)
    assert np.all(ext[ext] == np.arange(len(ext)))
    shift = m.slot_xy[ext] - m.slot_xy
    for d, period in enumerate((2.0, 1.5)):
        whole = np.round(shift[:, d] / period)
        assert np.abs(shift[:, d] - whole * period).max() < 1e-12
    nrm = m.slot_normal
    assert np.abs(nrm[:, ext] + nrm).max() < 1e-12


def test_one_element_wide_periodic_vortex_conserves_convex():
    case = get_case("vortex")
    mesh = case.build_mesh(1, 3, elem="quad")
    u0 = case.ic(mesh.xy)
    st = Stepper(mesh, case.gas, case.bcs, mode="convex")
    u, diags = advance(st, u0, 0.0, 0.5, cfl=case.cfl, collect=True)
    assert len(diags) > 3
    mass0 = (mesh.mass * u0[..., 0]).sum()
    assert abs((mesh.mass * u[..., 0]).sum() - mass0) < 1e-12 * mass0
