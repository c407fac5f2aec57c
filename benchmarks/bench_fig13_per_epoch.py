"""Figure 13 — per-epoch time: No Shuffle vs CorgiPile vs single-buffer.

Claims: CorgiPile's per-epoch time is within ~12 % of the fastest No
Shuffle baseline (double buffering hides the block/tuple shuffle work), the
single-buffer variant is up to ~24 % slower than double-buffered CorgiPile,
and small datasets run at memory speed after the first epoch.
"""

from __future__ import annotations

import threading
import time

import numpy as np
from conftest import ENGINE_BLOCK_BYTES, GLM_DATASETS, report_loader_stats, report_table

from repro import obs
from repro.core import PrefetchLoader
from repro.obs import LoaderMetrics
from repro.db import Catalog, overlap_crosscheck, run_in_db_system
from repro.db.engine import ENGINE_PROFILE
from repro.db.operators import SeqScanOperator, TupleShuffleOperator
from repro.db.timing import RuntimeContext
from repro.storage import HDD_SCALED, SSD_SCALED

EPOCHS = 4


def _steady_epoch_s(result) -> float:
    """Mean per-epoch wall time after the cold first epoch."""
    times = [p.time_s for p in result.timeline.points]
    walls = np.diff([result.timeline.setup_s] + times)
    return float(np.mean(walls[1:])) if len(walls) > 1 else float(walls[0])


def _run(glm_problems):
    rows = []
    for device in (HDD_SCALED, SSD_SCALED):
        for dataset in GLM_DATASETS:
            train, test = glm_problems[dataset]
            per = {}
            for strategy in ("no_shuffle", "corgipile", "corgipile_single_buffer"):
                result = run_in_db_system(
                    "corgipile", strategy, train, test, "svm", device,
                    epochs=EPOCHS, block_size=ENGINE_BLOCK_BYTES, seed=0,
                )
                per[strategy] = _steady_epoch_s(result)
            rows.append(
                {
                    "device": device.name,
                    "dataset": dataset,
                    "no_shuffle_s": round(per["no_shuffle"], 6),
                    "corgipile_s": round(per["corgipile"], 6),
                    "single_buffer_s": round(per["corgipile_single_buffer"], 6),
                    "corgi_vs_ns": round(per["corgipile"] / per["no_shuffle"], 3),
                    "double_vs_single": round(
                        per["corgipile"] / per["corgipile_single_buffer"], 3
                    ),
                }
            )
    return rows


def test_fig13_per_epoch_overhead(benchmark, glm_problems):
    rows = benchmark.pedantic(lambda: _run(glm_problems), rounds=1, iterations=1)
    report_table(rows, title="Figure 13: per-epoch time", json_name="fig13.json")

    for row in rows:
        # CorgiPile within ~20 % of No Shuffle (paper: <= 11.7 %).
        assert row["corgi_vs_ns"] < 1.2, row
        # Double buffering never slower than single buffering.
        assert row["double_vs_single"] <= 1.0 + 1e-9, row
    # Double buffering pays off visibly on at least some configurations
    # (the paper reports up to 23.6 % shorter epochs).
    assert min(r["double_vs_single"] for r in rows) < 0.95


def test_fig13_measured_overlap(glm_problems):
    """Measured double-buffering overlap from a real write thread.

    The table above charges double buffering through the analytic
    ``pipelined_time`` model; here the actual two-thread TupleShuffle of
    Section 6.3 (the TupleShuffle operator filling on a depth-1
    ``PrefetchLoader`` thread) runs over a real heap table, and the
    loader-observability counters report how much of the cross-thread waiting the write thread
    absorbed (overlap_fraction → 1.0 means filling was fully hidden behind
    consumption).
    """
    train, _ = glm_problems["higgs"]
    table = Catalog(page_bytes=1024).create_table("fig13", train)
    buffer_tuples = max(1, table.n_tuples // 10)

    baseline_threads = threading.active_count()
    stats = LoaderMetrics("threaded-tuple-shuffle")
    ctx = RuntimeContext(device=SSD_SCALED, compute=ENGINE_PROFILE)
    op = TupleShuffleOperator(SeqScanOperator(table, ctx), ctx, buffer_tuples, seed=0, stats=stats)
    # Trace the run so the span-derived overlap can audit the counters.
    obs.reset()
    with obs.trace_to() as (tracer, _registry):
        wall_t0 = time.perf_counter()
        op.open()
        sink = 0.0
        for epoch in range(2):
            for batch in PrefetchLoader(iter(op.next_batch, None), depth=1, stats=stats):
                for i in range(len(batch)):
                    # A stand-in for the per-tuple SGD update the read side performs.
                    features = batch.row(i)
                    sink += float(features @ features)
            if epoch == 0:
                op.rescan()
        op.close()
        wall_s = time.perf_counter() - wall_t0

    report_loader_stats(
        [stats],
        title="Figure 13 (measured): double-buffer overlap, real write thread",
        json_name="fig13_loader_stats.json",
    )

    d = stats.as_dict()
    fills_per_epoch = int(np.ceil(table.n_tuples / buffer_tuples))
    assert d["buffers_filled"] == d["buffers_drained"] == 2 * fills_per_epoch
    assert d["tuples_buffered"] == 2 * table.n_tuples
    assert d["threads_started"] == 2 and d["live_threads"] == 0
    assert 0.0 <= d["overlap_fraction"] <= 1.0
    assert threading.active_count() == baseline_threads
    assert sink > 0.0

    # Cross-check: the counter-derived overlap must match the independent
    # span-derived overlap (producer busy + consumer busy − wall).
    check = overlap_crosscheck(stats, tracer.spans, wall_s)
    report_table(
        [{k: round(v, 6) if isinstance(v, float) else v for k, v in check.items()}],
        title="Figure 13: overlap cross-check (counters vs spans)",
        json_name="fig13_overlap_crosscheck.json",
    )
    assert check["ok"], check
