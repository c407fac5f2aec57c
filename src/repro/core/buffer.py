"""The double-buffering pipeline model.

:func:`pipelined_time` is the simulated clock of a producer/consumer
pipeline with double buffering (Section 6.3): while SGD consumes buffer A,
the write thread fills buffer B, so per-fill wall time is the *max* of fill
(I/O) and consume (compute) instead of their sum.  :func:`serial_time` is the
single-buffer baseline the paper's Figure 13 compares against.  The real
write thread is a :class:`~repro.core.prefetch.PrefetchLoader` over that
operator; it measures what this model charges.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["pipelined_time", "serial_time"]


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
