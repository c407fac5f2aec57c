"""Best-of-N wall timing for overhead guards."""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["time_best"]


def time_best(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best (minimum) wall-clock seconds of ``fn()`` over ``repeats`` runs.

    Minimum — not mean — because scheduling noise only ever adds time; the
    fastest observed run is the closest estimate of the true cost.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
