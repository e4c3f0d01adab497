"""Scratch buffers reused from one Runge-Kutta stage to the next.

Every stage of a run does the same fixed-shape work: the low- and
high-order pair fluxes over the mesh's one pair graph, then the limiter.
Left to the allocator, the large temporaries of that work go back to the
OS when they are freed and are faulted in again at the next stage,
hundreds to thousands of minor page faults per step. A :class:`Workspace`
hands them out instead as views of one byte block that lives as long as
its owner (a ``Stepper``).

The solver holds its states component first, (variable, node, element),
and its pair arrays as (variable, pair, element), so every per-component
operation runs on a contiguous block. The pair kernels gather the pair
ends as row takes (:meth:`Workspace.gather`).

Every buffer starts on a 64-byte boundary of the address space (``ALIGN``,
one cache line): the block, every kept array and every take that does not
fit the block come from :func:`aligned_empty`, and takes sit at multiples
of ``ALIGN`` in the block. Every stage is a handful of elementwise passes
over pair- and end-sized arrays, and a 64-byte vector store into an output
off a cache line writes two lines: on an AVX-512 host, one 21,000-double
add takes 6.0 us into an aligned output and 12.2-12.8 us into one 8, 16,
32 or 48 bytes off. ``np.empty`` starts at any multiple of 16 bytes,
wherever the heap puts it, so without this a stage's speed would follow the
heap layout. The results do not depend on the addresses.

Temporaries are taken in *frames*: ``with ws.frame():`` remembers the top
of the block and gives everything taken inside back on exit, so frames nest
like a stack and every outermost frame starts at offset 0. The pair-flux
phase and the limiter phase thus share the same bytes. A take that does
not fit is served by a fresh array; when the outermost frame closes, the
block is replaced by one of exactly the largest extent seen. After the
first stage it therefore neither grows nor moves. Outputs that must
outlive their frame (the pair fluxes, the per-end tables) are
:meth:`Workspace.keep` arrays: one per key, allocated once.

The Stepper owns the one workspace of a run, and every stage kernel takes
it from its caller: the memory of a stage has a single owner and a single
path, so a dropped argument fails at the call instead of showing up as
page faults.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "aligned_empty"]

ALIGN = 64   # bytes (a cache line); every buffer address is a multiple of it


def aligned_empty(shape, dtype=float) -> np.ndarray:
    """An uninitialised C-contiguous array whose address is a multiple of
    ``ALIGN``: a ``uint8`` buffer ``ALIGN`` bytes longer than the array,
    viewed from its first aligned byte."""
    dtype = np.dtype(dtype)
    raw = np.empty(math.prod(shape) * dtype.itemsize + ALIGN, np.uint8)
    return np.ndarray(shape, dtype, raw, -raw.ctypes.data % ALIGN)


class Workspace:
    """Named, fixed-shape buffers of one owner, reused across stages."""

    def __init__(self):
        self._block = aligned_empty((0,), np.uint8)
        self._top = 0        # first free byte of the block
        self._high = 0       # largest extent taken so far
        self._kept = {}

    @property
    def nbytes(self) -> int:
        """Size of the shared block, in bytes (kept arrays not included)."""
        return self._block.nbytes

    def take(self, shape, dtype=float) -> np.ndarray:
        """An uninitialised array of the current frame."""
        start = self._top
        end = start + math.prod(shape) * (
            8 if dtype is float else np.dtype(dtype).itemsize)
        top = self._top = -(-end // ALIGN) * ALIGN
        if top > self._high:
            self._high = top
        if end > self._block.size:
            return aligned_empty(shape, dtype)
        return np.ndarray(shape, dtype, self._block, start)

    def gather(self, a, idx) -> np.ndarray:
        """``a[..., idx, :]``, rows of the last two axes, into an array of
        the current frame."""
        out = self.take(a.shape[:-2] + idx.shape + a.shape[-1:], a.dtype)
        return a.take(idx, axis=-2, out=out, mode="clip")

    def frame(self) -> _Frame:
        """Give back everything taken inside the block on exit."""
        return _Frame(self)

    def keep(self, key, shape, dtype=float) -> np.ndarray:
        """The persistent array of ``key``; the same one at every call."""
        out = self._kept.get(key)
        if out is None or out.shape != tuple(shape) or out.dtype != dtype:
            out = self._kept[key] = aligned_empty(shape, dtype)
        return out


class _Frame:
    """The frame of :meth:`Workspace.frame`: the top of the block at
    entry, restored at exit."""

    __slots__ = ("ws", "top")

    def __init__(self, ws: Workspace):
        self.ws = ws

    def __enter__(self) -> Workspace:
        self.top = self.ws._top
        return self.ws

    def __exit__(self, *exc) -> None:
        ws = self.ws
        ws._top = self.top
        if self.top == 0 and ws._high > ws._block.size:
            ws._block = aligned_empty((ws._high,), np.uint8)
