"""Stress tests for the concurrent loaders: no leaked or zombie threads.

Each loader is abandoned mid-epoch and made to raise inside the consumer;
afterwards ``threading.active_count()`` must return to its baseline (every
producer thread joined) and a subsequent full epoch must still yield the
correct tuple multiset.  The TupleShuffle operator behind a depth-1
``PrefetchLoader`` (Section 6.3's write thread) is held to the same, and to
the visit order of a synchronous pull.
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
from repro.db.operators import BlockShuffleOperator, SeqScanOperator, TupleShuffleOperator
from repro.db.timing import RuntimeContext
from repro.obs import LoaderMetrics
from repro.storage import SSD, write_block_file

from .conftest import pass_ids


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
            ids = sorted(int(i) for batch in loader for i in batch.ids)
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


def prefetched(op, stats=None) -> PrefetchLoader:
    """One pass of ``op`` through a depth-1 prefetch thread: Section 6.3's
    write thread filling the next buffer while the consumer drains this one."""
    return PrefetchLoader(iter(op.next_batch, None), depth=1, stats=stats)


def prefetched_ids(op, stats=None) -> list[int]:
    return [int(i) for batch in prefetched(op, stats) for i in batch.ids]


def tuple_shuffle(table, buffer_tuples, seed, child=SeqScanOperator, stats=None):
    ctx = _ctx()
    return TupleShuffleOperator(child(table, ctx), ctx, buffer_tuples, seed=seed, stats=stats)


class TestThreadedOperatorStress:
    """The TupleShuffle operator on a write thread: the synchronous operator
    behind a depth-1 ``PrefetchLoader``."""

    @pytest.fixture()
    def table(self):
        ds = make_binary_dense(800, 6, seed=1)
        return Catalog(page_bytes=512).create_table("t", ds)

    def test_covers_all_tuples(self, table):
        op = tuple_shuffle(table, 100, seed=1)
        op.open()
        ids = prefetched_ids(op)
        op.close()
        assert sorted(ids) == list(range(table.n_tuples))

    @pytest.mark.parametrize(
        "child",
        [SeqScanOperator, lambda t, ctx: BlockShuffleOperator(t, ctx, 2048, seed=2)],
        ids=["SeqScan", "BlockShuffle"],
    )
    def test_matches_synchronous_order(self, table, child):
        """Same child order + seed => the same order as a synchronous pull,
        pass after pass."""
        threaded = tuple_shuffle(table, 80, seed=2, child=child)
        sync = tuple_shuffle(table, 80, seed=2, child=child)
        threaded.open()
        sync.open()
        for _ in range(3):
            assert prefetched_ids(threaded) == pass_ids(sync)
            threaded.rescan()
            sync.rescan()
        threaded.close()

    def test_abandon_mid_epoch_releases_threads(self, table):
        baseline = threading.active_count()
        stats = LoaderMetrics("tuple-shuffle")
        for _ in range(5):
            op = tuple_shuffle(table, 50, seed=0, stats=stats)
            op.open()
            iterator = iter(prefetched(op, stats))
            next(iterator)
            iterator.close()  # joins the producer
            assert stats.live_threads == 0
            op.close()
        assert settled_thread_count(baseline) == baseline

    def test_early_close_terminates_producer(self, table):
        stats = LoaderMetrics("tuple-shuffle")
        op = tuple_shuffle(table, 50, seed=0, stats=stats)
        op.open()
        iterator = iter(prefetched(op, stats))
        next(iterator)
        iterator.close()  # must not hang
        op.close()
        assert stats.threads_started == 1
        assert stats.live_threads == 0

    def test_zombie_regression_producer_blocked_on_put(self, table):
        """Close while the writer is blocked handing over a full buffer."""
        baseline = threading.active_count()
        stats = LoaderMetrics("tuple-shuffle")
        op = tuple_shuffle(table, 10, seed=0, stats=stats)
        op.open()
        iterator = iter(prefetched(op, stats))
        next(iterator)
        time.sleep(0.1)  # writer fills the depth-1 queue and blocks
        iterator.close()
        op.close()
        assert settled_thread_count(baseline) == baseline
        assert stats.live_threads == 0

    def test_rescan_storm_releases_threads(self, table):
        baseline = threading.active_count()
        stats = LoaderMetrics("tuple-shuffle")
        op = tuple_shuffle(table, 60, seed=3, stats=stats)
        op.open()
        for _ in range(5):
            iterator = iter(prefetched(op, stats))
            next(iterator)
            iterator.close()
            op.rescan()
        assert sorted(prefetched_ids(op, stats)) == list(range(table.n_tuples))
        op.close()
        assert settled_thread_count(baseline) == baseline
        assert stats.threads_started == 6
        assert stats.live_threads == 0

    def test_epoch_multiset_correct_after_abandonment(self, table):
        op = tuple_shuffle(table, 50, seed=0)
        op.open()
        iterator = iter(prefetched(op))
        next(iterator)  # abandon the first epoch after one fill
        iterator.close()
        op.rescan()
        ids = sorted(prefetched_ids(op))
        op.close()
        assert ids == list(range(table.n_tuples))

    def test_reopen_after_close_restarts_at_epoch_zero(self, table):
        op = tuple_shuffle(table, 50, seed=4)
        op.open()
        first = prefetched_ids(op)
        op.rescan()
        later = prefetched_ids(op)
        op.close()
        op.seek(0)
        op.open()
        reopened = prefetched_ids(op)
        op.close()
        assert reopened == first
        assert later != first

    def test_child_exception_propagates(self, table):
        class Broken(SeqScanOperator):
            def next_batch(self):
                raise RuntimeError("disk on fire")

        baseline = threading.active_count()
        op = tuple_shuffle(table, 10, seed=0, child=Broken)
        op.open()
        with pytest.raises(RuntimeError, match="disk on fire"):
            prefetched_ids(op)
        op.close()
        assert settled_thread_count(baseline) == baseline

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
        op = tuple_shuffle(table, 10, seed=0, child=Broken)
        op.open()
        iterator = iter(prefetched(op))
        next(iterator)
        time.sleep(0.1)  # writer hits the error while the queue is full
        iterator.close()  # must cancel the terminal Failure put and join
        op.close()
        assert settled_thread_count(baseline) == baseline

    def test_stats_report_fill_drain_and_overlap(self, table):
        stats = LoaderMetrics("tuple-shuffle")
        op = tuple_shuffle(table, 100, seed=0, stats=stats)
        op.open()
        prefetched_ids(op, stats)
        op.close()
        d = stats.as_dict()
        fills = int(np.ceil(table.n_tuples / 100))
        assert d["buffers_filled"] == d["buffers_drained"] == d["items_consumed"] == fills
        assert d["tuples_buffered"] == table.n_tuples
        assert d["threads_started"] == 1 and d["live_threads"] == 0
        assert 0.0 <= d["overlap_fraction"] <= 1.0

    def test_invalid_buffer(self, table):
        with pytest.raises(ValueError):
            tuple_shuffle(table, 0, seed=0)
