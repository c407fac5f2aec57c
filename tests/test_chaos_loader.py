"""Chaos stress tests for the concurrent loader stack (satellite c).

The prefetch and multi-worker loaders run over a fault-injecting block
store.  Under a transient-only plan the loaders must behave *exactly* as
over a clean store: same tuple order (prefetch preserves order; the
multi-worker interleave preserves the multiset), no duplicated or dropped
tuples after a retried read, and — reusing the PR-1 leak guard — no thread
left behind, whether the epoch completes or dies on an unrecoverable fault.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core import CorgiPileDataset, DataLoader, MultiWorkerLoader, PrefetchLoader
from repro.data import make_binary_dense
from repro.faults import FaultPlan, FaultSpec, faulty_reader_factory
from repro.obs import StorageMetrics
from repro.storage import ReadExhaustedError, RetryPolicy, write_block_file

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def settled_thread_count(baseline: int, timeout: float = 5.0) -> int:
    """Wait for the thread count to settle back toward ``baseline``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if threading.active_count() <= baseline:
            return threading.active_count()
        time.sleep(0.01)
    return threading.active_count()


@pytest.fixture(scope="module")
def block_file(tmp_path_factory):
    ds = make_binary_dense(600, 6, seed=0)
    path = tmp_path_factory.mktemp("chaos") / "chaos.blocks"
    write_block_file(ds, path, tuples_per_block=25)
    return path, ds


class TestPrefetchLoaderChaos:
    @pytest.mark.parametrize("seed", [CHAOS_SEED * 2 + k for k in range(2)])
    def test_retried_reads_preserve_tuple_order(self, block_file, seed):
        path, _ = block_file
        baseline = threading.active_count()
        with CorgiPileDataset(path, buffer_blocks=2, seed=seed) as clean_view:
            expected = list(PrefetchLoader(DataLoader(clean_view, 16), depth=2))

        plan = FaultPlan.random(seed, p_transient=0.5, p_torn=0.3, max_failures=2)
        stats = StorageMetrics("prefetch-chaos")
        with CorgiPileDataset(
            path,
            buffer_blocks=2,
            seed=seed,
            reader_factory=faulty_reader_factory(plan, stats=stats),
        ) as faulty_view:
            got = list(PrefetchLoader(DataLoader(faulty_view, 16), depth=2))

        assert stats.retries > 0, "plan injected no faults; test is vacuous"
        assert [i for b in got for i in b.ids] == [i for b in expected for i in b.ids]
        assert settled_thread_count(baseline) == baseline

    def test_unrecoverable_fault_propagates_and_joins_threads(self, block_file):
        path, _ = block_file
        baseline = threading.active_count()
        # times exceeds the explicit 2-attempt budget: retry must exhaust.
        plan = FaultPlan(specs=[FaultSpec("transient", unit="block", target=0, times=5)])
        stats = StorageMetrics("prefetch-exhaust")
        factory = faulty_reader_factory(
            plan, stats=stats, retry=RetryPolicy(max_attempts=2)
        )
        with CorgiPileDataset(path, buffer_blocks=2, seed=0, reader_factory=factory) as view:
            loader = PrefetchLoader(DataLoader(view, 16), depth=2)
            with pytest.raises(ReadExhaustedError):
                for _ in loader:
                    pass
        assert stats.exhausted_reads == 1
        assert settled_thread_count(baseline) == baseline
        assert loader.stats.live_threads == 0


class TestMultiWorkerLoaderChaos:
    @pytest.mark.parametrize("seed", [CHAOS_SEED * 2 + k for k in range(2)])
    def test_retried_reads_preserve_tuple_multiset(self, block_file, seed):
        path, ds = block_file
        baseline = threading.active_count()
        plan = FaultPlan.random(seed, p_transient=0.5, p_torn=0.3, max_failures=2)
        stats = StorageMetrics("mw-chaos")
        with MultiWorkerLoader(
            path,
            3,
            2,
            batch_size=16,
            seed=seed,
            reader_factory=faulty_reader_factory(plan, stats=stats),
        ) as loader:
            ids = sorted(int(i) for batch in loader for i in batch.ids)
            assert loader.stats.live_threads == 0
        assert stats.retries > 0, "plan injected no faults; test is vacuous"
        assert ids == list(range(ds.n_tuples))
        assert settled_thread_count(baseline) == baseline

    def test_faulty_stream_matches_clean_stream_exactly(self, block_file):
        """Transient faults must not even *reorder* the interleave."""
        path, _ = block_file
        with MultiWorkerLoader(path, 2, 2, batch_size=16, seed=7) as loader:
            expected = [tuple(batch.ids) for batch in loader]
        plan = FaultPlan.random(7, p_transient=0.6, max_failures=2)
        with MultiWorkerLoader(
            path,
            2,
            2,
            batch_size=16,
            seed=7,
            reader_factory=faulty_reader_factory(plan),
        ) as loader:
            got = [tuple(batch.ids) for batch in loader]
        assert got == expected

    def test_unrecoverable_fault_joins_all_workers(self, block_file):
        path, _ = block_file
        baseline = threading.active_count()
        plan = FaultPlan(specs=[FaultSpec("transient", unit="block", target=3, times=5)])
        factory = faulty_reader_factory(plan, retry=RetryPolicy(max_attempts=2))
        with MultiWorkerLoader(
            path, 3, 2, batch_size=16, seed=1, reader_factory=factory
        ) as loader:
            with pytest.raises(ReadExhaustedError):
                for _ in loader:
                    pass
            assert settled_thread_count(baseline) == baseline
            assert loader.stats.live_threads == 0
