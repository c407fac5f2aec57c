"""Named shared-memory arrays for cross-process parameter/gradient exchange.

The engine's hot state lives in ``multiprocessing.shared_memory`` segments —
the model parameters, the ``PN`` per-worker gradient slots, the hopper's
``S x dim`` slab.  They are *named*, not inherited: the worker fleet outlives
a statement, and a process that is already running can only reach a new
segment by attaching to its name.  The coordinator creates the segments of
one statement, sends their ``(name, shape)`` handles with the task, and
unlinks them when the statement ends; nothing is locked, because the barrier
protocol provides all ordering (sync mode never has two writers to one slot)
and the async Hogwild mode *wants* racy updates.

Workers share the coordinator's resource tracker (``spawn`` passes it on),
so a worker's attach registers a name the tracker already holds and the
coordinator's ``unlink`` clears it — provided every worker that may still
attach is reaped before the unlink, which is the order the engines keep.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from multiprocessing import shared_memory

import numpy as np

__all__ = ["shared_arrays", "attach_arrays"]


def _view(segment, shape) -> np.ndarray:
    # A mapping of the array's own, unmapped by reference counting when the
    # last view of it dies.  A view over ``segment.buf`` would make
    # ``segment.close()`` raise for as long as any frame — or the traceback
    # of the exception that ends the statement — still holds one.
    mapping = mmap.mmap(segment._fd, 8 * math.prod(shape))
    return np.frombuffer(mapping, dtype=np.float64).reshape(shape)


@contextlib.contextmanager
def shared_arrays(*shapes):
    """Coordinator side: zeroed float64 arrays, one per shape, for one statement.

    Yields ``(arrays, handles)``; ``handles`` is what a worker passes to
    :func:`attach_arrays`.  The names are unlinked on the way out.
    """
    segments = []
    try:
        for shape in shapes:
            segments.append(shared_memory.SharedMemory(create=True, size=8 * math.prod(shape)))
        yield (
            [_view(seg, shape) for seg, shape in zip(segments, shapes)],
            [(seg.name, tuple(shape)) for seg, shape in zip(segments, shapes)],
        )
    finally:
        for segment in segments:
            segment.close()
            segment.unlink()


def attach_arrays(handles) -> list[np.ndarray]:
    """Worker side: views over the coordinator's arrays (no copy; writes are
    visible to every process)."""
    arrays = []
    for name, shape in handles:
        segment = shared_memory.SharedMemory(name=name)
        try:
            arrays.append(_view(segment, shape))
        finally:
            segment.close()
    return arrays
