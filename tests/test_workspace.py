"""The stage workspace: frames nest like a stack, the block is sized once,
and every buffer starts on a cache line."""

import math

import numpy as np
import pytest

from posdg import cli, workspace
from posdg.timestepping import ssp_rk3_step
from posdg.workspace import ALIGN, Workspace


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


def _aligned(*arrays):
    return all(a.ctypes.data % ALIGN == 0 for a in arrays)


def test_every_buffer_starts_on_a_cache_line():
    ws = Workspace()
    src = np.arange(7 * 5 * 3, dtype=float).reshape(7, 5, 3)
    idx = np.array([4, 0, 3])
    for _ in range(2):
        with ws.frame():
            taken = [ws.take((3,), bool), ws.take((5, 3)), ws.take((2,), bool),
                     ws.take((1,)), ws.gather(src, idx)]
            assert _aligned(*taken)
        kept = [ws.keep("FH", (4, 3)), ws.keep("w", (3,), bool),
                ws.keep("R", (5,))]
        assert _aligned(*kept)
        assert _aligned(ws._block)


def test_oversize_takes_and_a_regrown_block_stay_aligned():
    ws = Workspace()
    with ws.frame():
        assert _aligned(ws.take((3,)))   # the first take outgrows the block
    assert ws.nbytes == ALIGN
    with ws.frame():
        # past the block: fresh arrays, served before the block grows
        over = [ws.take((3,), bool), ws.take((101,)), ws.take((9, 7))]
        assert not any(np.shares_memory(a, ws._block) for a in over[1:])
        assert _aligned(*over)
    assert ws.nbytes > ALIGN
    with ws.frame():
        grown = [ws.take((3,), bool), ws.take((101,)), ws.take((9, 7))]
        assert _aligned(ws._block, *grown)
        assert grown[0].ctypes.data == ws._block.ctypes.data


def _at_16(shape, dtype=float):
    """The workspace allocator, but 16 bytes past a cache line."""
    dtype = np.dtype(dtype)
    raw = np.empty(math.prod(shape) * dtype.itemsize + ALIGN, np.uint8)
    return np.ndarray(shape, dtype, raw, (16 - raw.ctypes.data) % ALIGN)


@pytest.mark.parametrize("raw", [
    dict(case="vortex", elem="tri", N=3, K=2, mode="convex"),
    dict(case="daru", elem="quad", N=3, K=1, mode="elementwise"),
], ids=["vortex-tri-convex", "daru-quad-elementwise"])
def test_results_do_not_depend_on_buffer_addresses(raw, monkeypatch):
    """Alignment is a speed property only: 3 steps on a workspace whose
    buffers all sit 16 bytes off a cache line give the same bits."""

    def march(stepper, u0, cfl):
        u, t = np.array(u0.T, order="C"), 0.0
        for step in range(3):
            prep = stepper.prepare(u, t)
            dt = 0.5 * cfl * prep["bound"]
            u, _ = ssp_rk3_step(u, t, dt, stepper, prep, step)
            t += dt
        return u, stepper.ws

    _, _, stepper, u0, cfl, _ = cli.setup(cli.make_config(raw))
    u, ws = march(stepper, u0, cfl)
    assert _aligned(ws._block, *ws._kept.values())

    monkeypatch.setattr(workspace, "aligned_empty", _at_16)
    _, _, stepper, u0, cfl, _ = cli.setup(cli.make_config(raw))
    v, ws = march(stepper, u0, cfl)
    assert {a.ctypes.data % ALIGN for a in (ws._block, *ws._kept.values())
            } == {16}
    assert np.array_equal(u, v)
