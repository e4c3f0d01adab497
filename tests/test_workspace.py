"""The stage workspace: frames nest like a stack, the block is sized once."""

import numpy as np

from posdg.workspace import Workspace


def _span(a):
    return a.ctypes.data, a.ctypes.data + a.nbytes


def _one_stage(ws):
    """Two frames of nested takes, as a pair-flux and a limiter phase."""
    with ws.frame():
        a = ws.take((10, 3))
        with ws.frame():
            b = ws.take((7,), bool)
            c = ws.take((5, 2))
            live = [_span(x) for x in (a, b, c)]
        d = ws.take((5, 2))
    with ws.frame():
        e = ws.take((40,))
    return live, (a, b, c, d, e)


def test_frames_nest_and_give_their_buffers_back():
    ws = Workspace()
    _one_stage(ws)
    size = ws.nbytes
    assert size >= 40 * 8
    for _ in range(2):
        live, (a, b, c, d, e) = _one_stage(ws)
        live.sort()
        assert all(end <= start for (_, end), (start, _) in zip(live, live[1:]))
        # d reuses the inner frame's bytes, e the whole first frame's
        assert d.ctypes.data == b.ctypes.data
        assert e.ctypes.data == a.ctypes.data
        assert ws.nbytes == size


def test_takes_are_aligned_and_typed():
    ws = Workspace()
    for _ in range(2):
        with ws.frame():
            flags = ws.take((3,), bool)
            x = ws.take((4, 2))
            assert flags.dtype == bool and x.dtype == np.float64
            assert x.flags.aligned and x.flags.c_contiguous
            x[...] = 1.5
            assert np.all(x == 1.5)


def test_kept_arrays_persist_per_key():
    ws = Workspace()
    a = ws.keep(("FH", 0), (4, 3))
    assert ws.keep(("FH", 0), (4, 3)) is a
    assert ws.keep(("FH", 1), (4, 3)) is not a
    assert ws.keep(("FH", 0), (5, 3)).shape == (5, 3)
