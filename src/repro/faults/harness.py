"""Wiring helpers: thread a fault plan through a whole training stack.

The fault plane's unit wrappers (:mod:`repro.faults.store`) inject at one
read seam each; real chaos scenarios need the *stack* built over them — a
catalog table whose buffer pool retries over a faulty heap, or a loader
whose ``CorgiPileDataset`` reads through a faulty block-file reader.  These
helpers do that plumbing in one call, and :func:`chaos_report` renders the
resulting counters for the CLI and the tests.
"""

from __future__ import annotations

import copy
import functools
from pathlib import Path
from typing import Any, Callable

from ..obs import StorageMetrics
from ..storage.blockfile import BlockFileReader
from ..storage.retry import RetryPolicy
from .plan import FaultPlan
from .store import FaultyBlockFileReader, FaultyHeapFile

__all__ = ["faulty_reader_factory", "faulty_table", "chaos_report"]


def faulty_reader_factory(
    plan: FaultPlan,
    stats: StorageMetrics | None = None,
    retry: RetryPolicy | None = None,
) -> Callable[[str | Path], BlockFileReader]:
    """A ``reader_factory`` for :class:`~repro.core.dataset.CorgiPileDataset`.

    Every dataset view (one per loader worker) gets its own
    :class:`FaultyBlockFileReader` over the *shared* plan and stats, so
    multi-worker chaos runs keep one deterministic fault schedule and one
    aggregate counter set.
    """
    return functools.partial(FaultyBlockFileReader, plan=plan, retry=retry, storage_stats=stats)


def faulty_table(
    table: Any,
    plan: FaultPlan,
    stats: StorageMetrics | None = None,
    retry: RetryPolicy | None = None,
) -> tuple[Any, StorageMetrics]:
    """Rebuild a catalog ``TableInfo`` over a fault-injecting heap.

    Returns ``(faulty_table, stats)``: the same logical table whose page
    reads now go FaultyHeapFile → checksum verify → BufferPool bounded
    retry.  The original table (and its heap pages) are untouched; swap the
    returned info into the catalog (or use ``MiniDB.inject_faults``) to run
    queries under the plan.
    """
    if stats is None:
        stats = StorageMetrics(f"{table.name}-faults")
    heap = FaultyHeapFile(table.heap, plan, storage_stats=stats)
    if retry is None:
        retry = heap.recommended_retry()
    pool = table.pool
    new_pool = type(pool)(
        heap,
        capacity_pages=pool.capacity_pages,
        retry=retry,
        storage_stats=stats,
    )
    faulty = copy.copy(table)
    faulty.heap, faulty.pool = heap, new_pool
    return faulty, stats


def chaos_report(stats: StorageMetrics | dict, plan: FaultPlan | None = None) -> dict:
    """One flat row of fault/retry counters (for ``format_table``).

    Accepts a live :class:`~repro.obs.StorageMetrics` or its ``as_dict()``
    snapshot — so the CLI can re-render a report from an exported metrics
    file without reconstructing the stats object.
    """
    d = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    row = {
        "store": d["name"],
        "attempts": d["read_attempts"],
        "ok": d["reads_ok"],
        "transient": d["transient_errors"],
        "checksum": d["checksum_failures"],
        "retries": d["retries"],
        "exhausted": d["exhausted_reads"],
        "latency(ms)": round(1e3 * d["latency_injected_s"], 3),
        "invalidated": d["cache_invalidations"],
        "crashes": d["crashes_injected"],
    }
    if plan is not None:
        row["plan"] = (
            f"seed={plan.seed} pT={plan.p_transient} pTorn={plan.p_torn} "
            f"pLat={plan.p_latency}"
        )
    return row
