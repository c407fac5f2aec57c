"""Deterministic RNG derivation — one place for every seed → stream rule.

Every random decision in the reproduction must be a *pure function of a
small integer tuple* so that runs replay identically across threads,
processes, and resumes:

* shuffles derive from ``(seed, epoch)`` — the Section 5 requirement that
  all workers draw the *same* block permutation with no coordination;
* per-worker tuple shuffles derive from ``(seed, epoch, 1 + worker_id)`` —
  worker-local streams that never collide with the shared epoch stream;
* Volcano operators that need their own stream over the same ``(seed,
  epoch)`` append a fixed odd *stream code* (7, 11, 13, ...) so independent
  operators in one plan never share a stream;
* fault schedules derive from ``(seed, unit_code, target)`` — a per-unit
  draw that is independent of how reads interleave across loader threads
  or worker processes.

Historically each consumer built its own ``SeedSequence([...])`` inline;
the helpers here are those exact formulas (regression-pinned by
``tests/test_seeding.py``), so fault schedules, shuffles, and the
multi-process execution engine all stay byte-identical with pre-unification
code.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "derive_rng",
    "epoch_rng",
    "worker_rng",
    "stream_rng",
    "fault_unit_rng",
    "FAULT_UNIT_CODES",
    "TUPLE_SHUFFLE_STREAM",
    "SLIDING_WINDOW_STREAM",
    "MRS_STREAM",
    "RETRY_BACKOFF_STREAM",
    "CORGI2_OFFLINE_STREAM",
    "BLOCK_RESHUFFLE_STREAM",
]

# Stable small codes so the per-unit fault RNG stream is independent per
# unit kind (block-file blocks vs heap pages vs B+tree index nodes); an
# index_node's target is the node id within its ``.idx`` file.  Code 3 is
# retired, not reused, so every remaining unit's draws stay bit-equal.
FAULT_UNIT_CODES = {"block": 1, "page": 2, "index_node": 4}

# Operator stream codes: fixed odd integers appended to (seed, epoch) so
# each operator kind owns a distinct stream.  Worker streams use
# ``1 + worker_id`` (1, 2, 3, ...), so operator codes start above any
# realistic worker count.
TUPLE_SHUFFLE_STREAM = 7
SLIDING_WINDOW_STREAM = 11
MRS_STREAM = 13
#: Stream code for storage retry-backoff jitter draws (`RetryPolicy`).
RETRY_BACKOFF_STREAM = 17
#: Stream code for the Corgi² one-time offline block re-grouping pass.
#: Epoch-independent (the regrouped copy is materialised once), so the
#: stream is keyed as ``(seed, 0, CORGI2_OFFLINE_STREAM)``.
CORGI2_OFFLINE_STREAM = 19
#: Stream code for per-block in-memory tuple reshuffles (the Learning-to-
#: Shuffle block-reshuffling scheme).
BLOCK_RESHUFFLE_STREAM = 23


def derive_rng(*words: int) -> np.random.Generator:
    """A generator keyed by an integer tuple (``SeedSequence`` spawn-free).

    The canonical primitive: every other helper is a naming convention over
    which words go where.
    """
    return np.random.default_rng(np.random.SeedSequence([int(w) for w in words]))


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """The shared per-epoch stream — block shuffles, global permutations."""
    return derive_rng(seed, epoch)


def worker_rng(seed: int, epoch: int, worker_id: int) -> np.random.Generator:
    """Worker ``worker_id``'s private per-epoch stream (tuple shuffles).

    Offset by one so worker 0 does not collide with :func:`epoch_rng`.
    """
    return derive_rng(seed, epoch, 1 + worker_id)


def stream_rng(seed: int, epoch: int, stream: int) -> np.random.Generator:
    """An operator-private per-epoch stream keyed by a fixed stream code."""
    return derive_rng(seed, epoch, stream)


def fault_unit_rng(seed: int, unit: str, target: int) -> np.random.Generator:
    """The pure per-``(seed, unit, id)`` stream of the fault plane.

    Raises ``KeyError`` for unknown unit kinds — callers validate first.
    """
    return derive_rng(seed, FAULT_UNIT_CODES[unit], target)
