"""Shuffle buffers and the double-buffering pipeline model.

:class:`ShuffleBuffer` is the in-memory tuple buffer of the
``CorgiPileDataset`` iterator (Section 5): fill with tuples pulled from the
block reader, shuffle, drain.  The in-DB TupleShuffle operator (Section 6.2)
does the same over whole batches (``repro.db.operators.shuffled_fill``).

:func:`pipelined_time` computes the wall-clock of a producer/consumer
pipeline with double buffering (Section 6.3): while SGD consumes buffer A,
the write thread fills buffer B, so per-fill wall time is the *max* of fill
(I/O) and consume (compute) instead of their sum.  :func:`serial_time` is the
single-buffer baseline the paper's Figure 13 compares against.
"""

from __future__ import annotations

from typing import Generic, Iterable, Sequence, TypeVar

import numpy as np

from .. import obs

__all__ = ["ShuffleBuffer", "pipelined_time", "serial_time"]

T = TypeVar("T")


class ShuffleBuffer(Generic[T]):
    """A bounded buffer that shuffles its contents before draining."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._rng = rng
        self._items: list[T] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def add(self, item: T) -> None:
        if self.full:
            raise ValueError("buffer full; drain before adding")
        self._items.append(item)

    def fill_from(self, source: Iterable[T]) -> int:
        """Pull items from ``source`` until full or exhausted; return count.

        Consistent with :meth:`add`, the buffer never exceeds ``capacity``:
        a full buffer pulls nothing (returning 0), and no item is consumed
        from ``source`` without room to store it.
        """
        added = 0
        iterator = iter(source)
        while not self.full:
            try:
                item = next(iterator)
            except StopIteration:
                break
            self._items.append(item)
            added += 1
        return added

    def shuffle_and_drain(self) -> list[T]:
        """Shuffle buffered items, empty the buffer, return them."""
        order = self._rng.permutation(len(self._items))
        drained = [self._items[i] for i in order]
        self._items.clear()
        obs.SESSION_LOADER.record_buffer_drained(len(drained))
        return drained


def serial_time(fill_times: Sequence[float], consume_times: Sequence[float]) -> float:
    """Single-buffer wall clock: each fill and its consumption serialise."""
    if len(fill_times) != len(consume_times):
        raise ValueError("fill and consume sequences must have equal length")
    return float(sum(fill_times) + sum(consume_times))


def pipelined_time(fill_times: Sequence[float], consume_times: Sequence[float]) -> float:
    """Double-buffer wall clock.

    Fill ``i+1`` overlaps consumption of fill ``i``:
    ``fill[0] + sum(max(fill[i+1], consume[i])) + consume[-1]``.
    """
    if len(fill_times) != len(consume_times):
        raise ValueError("fill and consume sequences must have equal length")
    if not fill_times:
        return 0.0
    total = float(fill_times[0])
    for i in range(len(fill_times) - 1):
        total += max(float(fill_times[i + 1]), float(consume_times[i]))
    return total + float(consume_times[-1])
