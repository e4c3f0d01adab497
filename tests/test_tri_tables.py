"""The triangle-table generator's acceptance and merge, without the search.

``scripts/generate_tri_tables.py`` is not a package module; it is loaded
by path. It needs scipy, a test extra.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from posdg._tri_tables import TRI_TABLES

pytest.importorskip("scipy")

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "generate_tri_tables.py"
TABLES = Path(__file__).resolve().parents[1] / "src" / "posdg" / "_tri_tables.py"


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("generate_tri_tables", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load(path):
    spec = importlib.util.spec_from_file_location("tri_tables_copy", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRI_TABLES


def _interior(table):
    """Index of a node off every face of the reference triangle."""
    r, s = np.array(table["volume_nodes"]).T
    off = np.minimum(np.minimum(r + 1, s + 1), -(r + s))
    return int(np.argmax(off))


def _on_face(table):
    """Index of a node on the face s = -1."""
    s = np.array(table["volume_nodes"])[:, 1]
    return int(np.nonzero(s == -1.0)[0][0])


@pytest.mark.parametrize("N", sorted(TRI_TABLES))
def test_accepts_committed_rules(gen, N):
    assert gen.accept(N, TRI_TABLES[N])


@pytest.mark.parametrize("N", sorted(TRI_TABLES))
def test_rejects_scaled_interior_weight(gen, N):
    tab = dict(TRI_TABLES[N])
    w = list(tab["volume_weights"])
    i = _interior(tab)
    assert w[i] > 0
    w[i] *= 1 + 1e-6
    tab["volume_weights"] = w
    assert not gen.accept(N, tab)


@pytest.mark.parametrize("N", sorted(TRI_TABLES))
def test_rejects_missing_face_node(gen, N):
    tab = dict(TRI_TABLES[N])
    i = _on_face(tab)
    tab["volume_nodes"] = [p for j, p in enumerate(tab["volume_nodes"])
                           if j != i]
    tab["volume_weights"] = [w for j, w in enumerate(tab["volume_weights"])
                             if j != i]
    assert not gen.accept(N, tab)


def test_write_reproduces_committed_tables(gen, tmp_path):
    out = tmp_path / "tables.py"
    gen.write_tables(out, gen.merged({}))
    assert out.read_bytes() == TABLES.read_bytes()


def test_subset_merge_keeps_other_degrees(gen, tmp_path):
    # a search for N = 1 alone replaces only N = 1's entry
    new = dict(TRI_TABLES[1], exactness_degree=99)
    out = tmp_path / "tables.py"
    gen.write_tables(out, gen.merged({1: new}))
    got = _load(out)
    assert list(got) == list(TRI_TABLES)
    assert got[1]["exactness_degree"] == 99
    for N in sorted(TRI_TABLES)[1:]:
        assert got[N] == TRI_TABLES[N]
    text, committed = out.read_text(), TABLES.read_text()
    start = "    2: {\n"
    assert text[text.index(start):] == committed[committed.index(start):]
