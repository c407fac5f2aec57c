"""Stress tests for the concurrent loaders: no leaked or zombie threads.

Each loader is abandoned mid-epoch and made to raise inside the consumer;
afterwards ``threading.active_count()`` must return to its baseline (every
producer thread joined) and a subsequent full epoch must still yield the
correct tuple multiset.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import MultiWorkerLoader, PrefetchLoader
from repro.data import make_binary_dense
from repro.db import Catalog
from repro.db.engine import ENGINE_PROFILE
from repro.db.operators import SeqScanOperator
from repro.db.threaded import ThreadedTupleShuffleOperator
from repro.db.timing import RuntimeContext
from repro.obs import LoaderMetrics
from repro.storage import SSD, write_block_file


def settled_thread_count(baseline: int, timeout: float = 5.0) -> int:
    """Wait for the thread count to settle back toward ``baseline``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if threading.active_count() <= baseline:
            return threading.active_count()
        time.sleep(0.01)
    return threading.active_count()


@pytest.fixture()
def block_file(tmp_path):
    ds = make_binary_dense(600, 6, seed=0)
    path = tmp_path / "stress.blocks"
    write_block_file(ds, path, tuples_per_block=25)
    return path, ds


def _ctx():
    return RuntimeContext(device=SSD, compute=ENGINE_PROFILE)


class TestPrefetchLoaderStress:
    def test_abandon_mid_epoch_releases_threads(self):
        baseline = threading.active_count()
        loader = PrefetchLoader(range(10_000), depth=2)
        for _ in range(10):
            iterator = iter(loader)
            next(iterator)
            iterator.close()
        assert settled_thread_count(baseline) == baseline
        assert loader.stats.live_threads == 0

    def test_consumer_exception_releases_threads(self):
        baseline = threading.active_count()
        loader = PrefetchLoader(range(10_000), depth=2)
        with pytest.raises(ValueError, match="consumer bailed"):
            for item in loader:
                if item == 3:
                    raise ValueError("consumer bailed")
        assert settled_thread_count(baseline) == baseline

    def test_epoch_correct_after_abandonment(self):
        loader = PrefetchLoader(list(range(500)), depth=2)
        iterator = iter(loader)
        next(iterator)
        iterator.close()
        assert list(loader) == list(range(500))


class TestMultiWorkerLoaderStress:
    def test_abandon_mid_epoch_releases_threads(self, block_file):
        path, ds = block_file
        baseline = threading.active_count()
        with MultiWorkerLoader(path, 3, 2, batch_size=16, seed=0) as loader:
            for _ in range(3):
                iterator = iter(loader)
                next(iterator)
                iterator.close()
            assert settled_thread_count(baseline) == baseline
            assert loader.stats.live_threads == 0

    def test_consumer_exception_releases_threads(self, block_file):
        path, ds = block_file
        baseline = threading.active_count()
        with MultiWorkerLoader(path, 2, 2, batch_size=16, seed=0) as loader:
            with pytest.raises(RuntimeError, match="training blew up"):
                for i, _batch in enumerate(loader):
                    if i == 2:
                        raise RuntimeError("training blew up")
            assert settled_thread_count(baseline) == baseline

    def test_epoch_correct_after_abandonment(self, block_file):
        path, ds = block_file
        with MultiWorkerLoader(path, 2, 2, batch_size=16, seed=0) as loader:
            iterator = iter(loader)
            next(iterator)
            iterator.close()
            ids = sorted(int(i) for batch in loader for i in batch.tuple_ids)
        assert ids == list(range(ds.n_tuples))

    def test_stats_aggregate_across_workers(self, block_file):
        path, ds = block_file
        stats = LoaderMetrics("mw")
        with MultiWorkerLoader(path, 2, 2, batch_size=16, seed=0, stats=stats) as loader:
            n_batches = sum(1 for _ in loader)
        d = stats.as_dict()
        assert d["items_consumed"] == n_batches
        assert d["threads_started"] == 2
        assert d["live_threads"] == 0
        assert d["buffers_filled"] == d["buffers_drained"] > 0


class TestThreadedOperatorStress:
    @pytest.fixture()
    def table(self):
        ds = make_binary_dense(800, 6, seed=1)
        return Catalog(page_bytes=512).create_table("t", ds)

    def test_abandon_mid_epoch_releases_threads(self, table):
        baseline = threading.active_count()
        for _ in range(5):
            op = ThreadedTupleShuffleOperator(SeqScanOperator(table, _ctx()), 50, seed=0)
            op.open()
            op.next()
            op.close()
            assert op._producer is None
        assert settled_thread_count(baseline) == baseline

    def test_zombie_regression_producer_blocked_on_put(self, table):
        """Close while the writer is blocked handing over a full buffer."""
        baseline = threading.active_count()
        op = ThreadedTupleShuffleOperator(SeqScanOperator(table, _ctx()), 10, seed=0)
        op.open()
        op.next()
        time.sleep(0.1)  # writer fills the depth-1 queue and blocks
        op.close()
        assert settled_thread_count(baseline) == baseline
        assert op.stats.live_threads == 0

    def test_rescan_storm_releases_threads(self, table):
        baseline = threading.active_count()
        op = ThreadedTupleShuffleOperator(SeqScanOperator(table, _ctx()), 60, seed=3)
        op.open()
        for _ in range(5):
            op.next()
            op.rescan()
        op.close()
        assert settled_thread_count(baseline) == baseline
        assert op.stats.threads_started == 6
        assert op.stats.live_threads == 0

    def test_epoch_multiset_correct_after_abandonment(self, table):
        op = ThreadedTupleShuffleOperator(SeqScanOperator(table, _ctx()), 50, seed=0)
        op.open()
        op.next()  # abandon the first epoch after one tuple
        op.rescan()
        ids = sorted(r.tuple_id for r in op)
        op.close()
        assert ids == list(range(table.n_tuples))

    def test_reopen_after_close_restarts_at_epoch_zero(self, table):
        op = ThreadedTupleShuffleOperator(SeqScanOperator(table, _ctx()), 50, seed=4)
        op.open()
        first = [r.tuple_id for r in op]
        op.rescan()
        later = [r.tuple_id for r in op]
        op.close()
        op.open()
        reopened = [r.tuple_id for r in op]
        op.close()
        assert reopened == first
        assert later != first

    def test_error_path_terminal_put_does_not_zombie(self, table):
        """A child error with a full queue must not strand the writer."""

        class Broken(SeqScanOperator):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                self.calls = 0

            def next_batch(self):
                self.calls += 1
                if self.calls > 3:  # inside the third fill (7-row pages, 10-row fills)
                    raise RuntimeError("disk on fire")
                return super().next_batch()

        baseline = threading.active_count()
        op = ThreadedTupleShuffleOperator(Broken(table, _ctx()), 10, seed=0)
        op.open()
        op.next()
        time.sleep(0.1)  # writer hits the error while the queue is full
        op.close()  # must cancel the terminal Failure put and join
        assert settled_thread_count(baseline) == baseline

    def test_stats_report_fill_drain_and_overlap(self, table):
        stats = LoaderMetrics("threaded")
        op = ThreadedTupleShuffleOperator(
            SeqScanOperator(table, _ctx()), 100, seed=0, stats=stats
        )
        op.open()
        while op.next() is not None:
            pass
        op.close()
        d = stats.as_dict()
        assert d["buffers_filled"] == d["buffers_drained"] == int(np.ceil(table.n_tuples / 100))
        assert d["tuples_buffered"] == table.n_tuples
        assert d["live_threads"] == 0
        assert 0.0 <= d["overlap_fraction"] <= 1.0
