"""Tests for the threaded prefetch loader and the in-DB window/MRS operators."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.prefetch import PrefetchLoader
from repro.data import clustered_by_label, make_binary_dense
from repro.db import Catalog, MiniDB
from repro.db.engine import ENGINE_PROFILE
from repro.db.operators import (
    MultiplexedReservoirOperator,
    SeqScanOperator,
    SlidingWindowOperator,
)
from repro.db.timing import RuntimeContext
from repro.storage import SSD
from repro.theory import position_rank_correlation

from .conftest import pass_ids


class TestPrefetchLoader:
    def test_preserves_items_and_order(self):
        items = list(range(100))
        assert list(PrefetchLoader(items, depth=4)) == items

    def test_restartable(self):
        loader = PrefetchLoader([1, 2, 3], depth=2)
        assert list(loader) == [1, 2, 3]
        assert list(loader) == [1, 2, 3]

    def test_generator_source_per_epoch(self):
        class EpochSource:
            def __init__(self):
                self.epoch = 0

            def __iter__(self):
                self.epoch += 1
                return iter(range(self.epoch))

        source = EpochSource()
        loader = PrefetchLoader(source, depth=2)
        assert list(loader) == [0]
        assert list(loader) == [0, 1]

    def test_producer_exception_propagates(self):
        def broken():
            yield 1
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            list(PrefetchLoader(broken(), depth=2))

    def test_overlaps_slow_producer_with_slow_consumer(self):
        delay = 0.01
        n = 12

        def slow_source():
            for i in range(n):
                time.sleep(delay)
                yield i

        # Serial: n*(delay_produce + delay_consume); overlapped: ~n*delay.
        start = time.perf_counter()
        for _ in PrefetchLoader(slow_source(), depth=2):
            time.sleep(delay)
        overlapped = time.perf_counter() - start
        assert overlapped < 1.7 * n * delay

    def test_abandoned_iteration_stops_producer(self):
        produced = []

        def source():
            for i in range(10_000):
                produced.append(i)
                yield i

        iterator = iter(PrefetchLoader(source(), depth=2))
        next(iterator)
        iterator.close()
        time.sleep(0.05)
        assert len(produced) < 10_000

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            PrefetchLoader([], depth=0)


@pytest.fixture()
def engine_table():
    ds = clustered_by_label(make_binary_dense(800, 8, separation=1.0, seed=0), seed=0)
    table = Catalog(page_bytes=512).create_table("t", ds)
    ctx = RuntimeContext(device=SSD, compute=ENGINE_PROFILE)
    return table, ctx, ds


class TestSlidingWindowOperator:
    def test_emits_permutation(self, engine_table):
        table, ctx, _ = engine_table
        op = SlidingWindowOperator(SeqScanOperator(table, ctx), 80, seed=0)
        op.open()
        ids = pass_ids(op)
        assert sorted(ids) == list(range(table.n_tuples))

    def test_keeps_locality(self, engine_table):
        table, ctx, _ = engine_table
        op = SlidingWindowOperator(SeqScanOperator(table, ctx), 80, seed=0)
        op.open()
        ids = np.array(pass_ids(op))
        assert position_rank_correlation(ids) > 0.85

    def test_rescan_differs(self, engine_table):
        table, ctx, _ = engine_table
        op = SlidingWindowOperator(SeqScanOperator(table, ctx), 80, seed=0)
        op.open()
        first = pass_ids(op)
        op.rescan()
        second = pass_ids(op)
        assert first != second

    def test_invalid_window(self, engine_table):
        table, ctx, _ = engine_table
        with pytest.raises(ValueError):
            SlidingWindowOperator(SeqScanOperator(table, ctx), 0)


class TestMultiplexedReservoirOperator:
    def test_emits_one_per_scanned_tuple(self, engine_table):
        table, ctx, _ = engine_table
        op = MultiplexedReservoirOperator(SeqScanOperator(table, ctx), 80, seed=0)
        op.open()
        ids = pass_ids(op)
        assert len(ids) == table.n_tuples
        assert min(ids) >= 0 and max(ids) < table.n_tuples

    def test_repeats_buffered_tuples(self, engine_table):
        table, ctx, _ = engine_table
        op = MultiplexedReservoirOperator(SeqScanOperator(table, ctx), 80, seed=0)
        op.open()
        ids = pass_ids(op)
        assert len(set(ids)) < len(ids)

    def test_partial_shuffle_between_window_and_full(self, engine_table):
        table, ctx, _ = engine_table
        op = MultiplexedReservoirOperator(SeqScanOperator(table, ctx), 80, seed=0)
        op.open()
        corr = position_rank_correlation(np.array(pass_ids(op)))
        assert 0.2 < corr < 0.95

    def test_validation(self, engine_table):
        table, ctx, _ = engine_table
        with pytest.raises(ValueError):
            MultiplexedReservoirOperator(SeqScanOperator(table, ctx), 0)
        with pytest.raises(ValueError):
            MultiplexedReservoirOperator(SeqScanOperator(table, ctx), 2, mix_interval=0)


class TestEngineWindowStrategies:
    def test_window_and_mrs_strategies_run(self, engine_table):
        _, _, ds = engine_table
        db = MiniDB(page_bytes=512)
        db.create_table("t", ds)
        for strategy in ("sliding_window", "mrs"):
            result = db.execute(
                f"SELECT * FROM t TRAIN BY lr WITH strategy = {strategy}, "
                "max_epoch_num = 3, block_size = 4KB"
            )
            assert result.history.epochs == 3

    def test_explain_window_strategies(self, engine_table):
        _, _, ds = engine_table
        db = MiniDB(page_bytes=512)
        db.create_table("t", ds)
        assert "SlidingWindow" in db.execute(
            "EXPLAIN SELECT * FROM t TRAIN BY lr WITH strategy = sliding_window"
        )
        assert "MultiplexedReservoir" in db.execute(
            "EXPLAIN SELECT * FROM t TRAIN BY lr WITH strategy = mrs"
        )
