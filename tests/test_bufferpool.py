"""Tests for the LRU buffer pool."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_binary_dense, make_binary_sparse
from repro.db import MiniDB
from repro.obs import StorageMetrics
from repro.faults import FaultPlan, FaultSpec, FaultyHeapFile
from repro.storage import BufferPool, HeapFile, ReadExhaustedError, RetryPolicy


@pytest.fixture()
def heap(dense_binary) -> HeapFile:
    return HeapFile.from_dataset(dense_binary, page_bytes=1024)


class TestBufferPool:
    def test_miss_then_hit(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        pool.get_batch(0)
        assert (pool.hits, pool.misses) == (0, 1)
        pool.get_batch(0)
        assert (pool.hits, pool.misses) == (1, 1)

    def test_traced_flags(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        _, hit = pool.get_batch_traced(2)
        assert hit is False
        _, hit = pool.get_batch_traced(2)
        assert hit is True

    def test_lru_eviction(self, heap):
        pool = BufferPool(heap, capacity_pages=2)
        pool.get_batch(0)
        pool.get_batch(1)
        pool.get_batch(2)  # evicts page 0
        assert pool.cached_pages == 2
        _, hit = pool.get_batch_traced(0)
        assert hit is False

    def test_lru_recency_update(self, heap):
        pool = BufferPool(heap, capacity_pages=2)
        pool.get_batch(0)
        pool.get_batch(1)
        pool.get_batch(0)  # page 0 becomes most recent
        pool.get_batch(2)  # evicts page 1
        _, hit = pool.get_batch_traced(0)
        assert hit is True

    def test_clear(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        pool.get_batch(0)
        pool.clear()
        assert pool.cached_pages == 0
        _, hit = pool.get_batch_traced(0)
        assert hit is False

    def test_hit_rate(self, heap):
        pool = BufferPool(heap, capacity_pages=8)
        assert pool.hit_rate == 0.0
        pool.get_batch(0)
        pool.get_batch(0)
        pool.get_batch(0)
        assert pool.hit_rate == pytest.approx(2 / 3)

    def test_reset_stats(self, heap):
        pool = BufferPool(heap, capacity_pages=8)
        pool.get_batch(0)
        pool.reset_stats()
        assert (pool.hits, pool.misses) == (0, 0)
        assert pool.cached_pages == 1  # cache content survives

    def test_invalid_capacity(self, heap):
        with pytest.raises(ValueError):
            BufferPool(heap, capacity_pages=0)

    def test_page_content_identity(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        batch = pool.get_batch(1)
        assert batch.ids[0] == heap.read_page_batch(1).ids[0]

    def test_cache_unaffected_by_reader_copies(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        first = pool.get_batch(0)
        mutated = first.take(np.arange(len(first)))
        mutated.ids[:] = -1  # a caller mangling its own copy...
        again = pool.get_batch(0)
        assert len(again) == len(first)  # ...leaves the cached page intact
        assert again.ids[0] == heap.read_page_batch(0).ids[0]


class TestBufferPoolFaultInvalidation:
    """Regression (satellite d): a retried page read must invalidate the
    decoded-batch cache — a batch cached before the fault window opened can
    never be served once an attempt on that page fails its checksum."""

    def _faulty_pool(self, heap, spec, capacity=4, max_attempts=3):
        plan = FaultPlan(specs=[spec])
        stats = StorageMetrics("pool-faults")
        faulty = FaultyHeapFile(heap, plan, storage_stats=stats)
        pool = BufferPool(
            faulty,
            capacity_pages=capacity,
            retry=RetryPolicy(max_attempts=max_attempts),
            storage_stats=stats,
        )
        return pool, stats

    def test_failed_attempt_invalidates_cached_batch(self, heap):
        # Read 1 is clean and caches the page; read 2 opens the fault window.
        pool, stats = self._faulty_pool(
            heap, FaultSpec("torn", unit="page", target=0, times=1, from_read=2)
        )
        clean = pool.get_batch(0)  # read call 1: clean, cached
        assert pool.is_cached(0)
        pool.invalidate(0)
        refreshed = pool.get_batch(0)  # read call 2: torn, retried, re-verified
        assert stats.checksum_failures == 1
        assert stats.retries == 1
        assert stats.cache_invalidations >= 1
        # The recovered page is verified content, identical to the clean read.
        assert np.array_equal(clean.ids, pool.get_batch(0).ids)
        assert list(refreshed.ids) == list(clean.ids)

    def test_exhausted_read_leaves_nothing_cached(self, heap):
        pool, stats = self._faulty_pool(
            heap,
            FaultSpec("torn", unit="page", target=1, times=5, from_read=2),
            max_attempts=2,
        )
        pool.get_batch(1)  # clean first read, cached
        pool.invalidate(1)
        with pytest.raises(ReadExhaustedError):
            pool.get_batch(1)
        # The pre-fault batch must not have survived as a stale "hit".
        assert not pool.is_cached(1)
        assert stats.exhausted_reads == 1

    def test_recovery_recaches_verified_content(self, heap):
        pool, stats = self._faulty_pool(
            heap, FaultSpec("torn", unit="page", target=2, times=1, from_read=1)
        )
        batch = pool.get_batch(2)  # torn once, retried to success
        assert stats.retries == 1
        assert pool.is_cached(2)
        _, hit = pool.get_batch_traced(2)  # the verified re-read is cached
        assert hit is True
        expected = heap.read_page_batch(2)
        assert list(batch.ids) == list(expected.ids)

    def test_unfaulted_pages_keep_their_entries(self, heap):
        pool, _ = self._faulty_pool(
            heap, FaultSpec("torn", unit="page", target=0, times=1, from_read=2)
        )
        pool.get_batch(0)
        pool.get_batch(3)
        pool.invalidate(0)
        pool.get_batch(0)  # fault window on page 0 only
        assert pool.is_cached(3)  # neighbours are untouched


# ----------------------------------------------------------------------
# Residency generations: cold_start() empties the simulated cache but keeps
# the decoded batches.  The oracle is a pool that clear()s at the same points.
# ----------------------------------------------------------------------

_DENSE = make_binary_dense(400, 12, separation=1.2, seed=11)
_SPARSE = make_binary_sparse(240, 3000, nnz_per_row=20, separation=1.0, seed=5)
_N_PAGES = 8

#: One access stream: a page id, or ``None`` for a cold start.
_streams = st.lists(st.one_of(st.integers(0, _N_PAGES - 1), st.none()), max_size=80)


def _replay(pool: BufferPool, stream, cold, touch: bool) -> list[bool]:
    flags = []
    for step in stream:
        if step is None:
            cold(pool)
            continue
        batch, hit = pool.get_batch_traced(step)
        flags.append(hit)
        if touch and hasattr(batch, "materialize"):
            batch.materialize()  # a consumer growing the lazy entry
    return flags


def _assert_same_simulated_cache(make_heap, stream, touch=False, **pool_args):
    """The generation pool answers every access as the clearing pool does,
    and never decodes more than it."""
    pools = {}
    for name, cold in (("generation", BufferPool.cold_start), ("clearing", BufferPool.clear)):
        pool = BufferPool(make_heap(), **pool_args)
        pools[name] = (pool, _replay(pool, stream, cold, touch))
    (gen, gen_flags), (ref, ref_flags) = pools["generation"], pools["clearing"]
    assert gen_flags == ref_flags
    assert (gen.hits, gen.misses, gen.evictions) == (ref.hits, ref.misses, ref.evictions)
    assert gen.cached_pages == ref.cached_pages
    assert [gen.is_cached(p) for p in range(_N_PAGES)] == [
        ref.is_cached(p) for p in range(_N_PAGES)
    ]
    assert gen.heap.decode_count <= ref.heap.decode_count


class TestResidencyGeneration:
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    @settings(max_examples=60, deadline=None)
    @given(stream=_streams, capacity=st.integers(1, _N_PAGES))
    def test_page_budget_pool_matches_a_clearing_pool(self, layout, stream, capacity):
        def make_heap():
            heap = HeapFile.from_dataset(_DENSE, page_bytes=1024, layout=layout)
            assert heap.n_pages >= _N_PAGES
            return heap

        _assert_same_simulated_cache(make_heap, stream, capacity_pages=capacity)

    @settings(max_examples=60, deadline=None)
    @given(
        stream=_streams,
        budget=st.integers(1024, 64 * 1024),
        touch=st.booleans(),
    )
    def test_byte_budget_pool_over_lazy_pages_matches(self, stream, budget, touch):
        def make_heap():
            heap = HeapFile.from_dataset(_SPARSE, page_bytes=2048, layout="columnar")
            assert heap.n_pages >= _N_PAGES
            return heap

        _assert_same_simulated_cache(
            make_heap, stream, touch=touch, capacity_pages=1024, capacity_bytes=budget
        )

    def test_byte_budget_does_not_reuse_a_grown_lazy_batch(self):
        """A lazy batch reused after cold_start would arrive with the columns
        an earlier statement materialised and charge the budget for them,
        where a fresh decode charges nothing yet: here it would evict page 0
        one access early, and the last access would miss."""

        def make_heap():
            return HeapFile.from_dataset(_DENSE, page_bytes=1024, layout="columnar")

        probe = make_heap().read_page_batch(0)
        probe.materialize()
        _assert_same_simulated_cache(
            make_heap,
            [5, 6, 7, None, 0, 1, 7, 0],
            touch=True,
            capacity_pages=1024,
            capacity_bytes=int(2.5 * probe.decoded_nbytes),
        )

    def test_cold_start_keeps_the_batches_and_skips_the_decode(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        first = pool.get_batch(0)
        decoded = heap.decode_count
        pool.cold_start()
        assert not pool.is_cached(0) and pool.cached_pages == 0
        again, hit = pool.get_batch_traced(0)
        assert not hit and (pool.hits, pool.misses) == (0, 2)  # a miss on the clock...
        assert again is first and heap.decode_count == decoded  # ...with no decode
        assert pool.get_batch_traced(0) == (first, True)

    def test_a_page_write_is_seen_without_telling_the_pool(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        rid = heap.rid_of(0)
        before = pool.get_batch(rid.page_id)
        heap.delete(rid)
        after, hit = pool.get_batch_traced(rid.page_id)
        assert not hit and len(after) == len(before) - 1
        pool.cold_start()
        heap.update(heap.rid_of(0), 7, 1.0, np.zeros(heap.schema.n_features))
        fresh = pool.get_batch(rid.page_id)  # written since cached: decoded again
        assert fresh is not after and fresh.ids[0] == 7

    def test_cold_start_miss_still_reads_through_the_fault_seam(self, heap):
        """The skipped decode comes after a successful read: a page whose
        read fails on this pass never serves its surviving batch."""
        stats = StorageMetrics("pool-generations")
        plan = FaultPlan(specs=[FaultSpec("torn", unit="page", target=1, times=2, from_read=2)])
        faulty = FaultyHeapFile(heap, plan, storage_stats=stats)
        pool = BufferPool(
            faulty, capacity_pages=4, retry=RetryPolicy(max_attempts=2), storage_stats=stats
        )
        pool.get_batch(1)  # read 1: clean, decoded
        decoded = faulty.decode_count
        pool.cold_start()
        with pytest.raises(ReadExhaustedError):
            pool.get_batch(1)  # both attempts of read call 2: torn
        assert (stats.read_attempts, stats.checksum_failures) == (3, 2)
        assert stats.cache_invalidations == 0  # the entry was not resident
        pool.retry = RetryPolicy(max_attempts=3)  # outlasts the torn attempts
        pool.get_batch(1)  # its third attempt is clean, but the batch is gone
        assert faulty.decode_count == 2 * decoded


class TestWarmStatements:
    """Back-to-back TRAINs on one table: the second decodes only what was
    written since the first, and trains the same bits on the same clock."""

    SQL = "SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 2, block_size = 2KB, seed = 3"

    @staticmethod
    def _db():
        db = MiniDB(page_bytes=1024)
        db.create_table("t", make_binary_dense(600, 12, separation=1.2, seed=11))
        return db, db.catalog.get("t")

    @staticmethod
    def _assert_same_run(a, b):
        for key in a.model.params:
            np.testing.assert_array_equal(a.model.params[key], b.model.params[key])
        assert [p.time_s for p in a.timeline.points] == [p.time_s for p in b.timeline.points]

    def test_second_train_decodes_nothing(self):
        db, table = self._db()
        first = db.execute(self.SQL)
        decoded = table.heap.decode_count
        assert decoded > 0
        second = db.execute(self.SQL)
        assert table.heap.decode_count == decoded
        self._assert_same_run(first, second)

    @pytest.mark.parametrize("write", ["UPDATE", "DELETE", "INSERT"])
    def test_only_written_pages_decode_again(self, write):
        db, table = self._db()
        db.execute(self.SQL)
        heap = table.heap
        versions = [page.version for page in heap.pages]
        if write == "UPDATE":
            db.execute("UPDATE t SET f1 = 0.5 WHERE f0 >= 1.5")
        elif write == "DELETE":
            db.execute("DELETE FROM t WHERE f0 >= 1.5")
        else:
            literal = ", ".join(["1.0"] + ["0.25"] * 12)
            db.execute(f"INSERT INTO t VALUES ({literal})")
        written = [p for p in heap.pages if p.page_id >= len(versions)
                   or p.version != versions[p.page_id]]
        assert 0 < len(written) < heap.n_pages
        table.dataset  # noqa: B018 - the view rebuild reads every page, off the pool
        decoded = heap.decode_count
        warm = db.execute(self.SQL)
        assert heap.decode_count - decoded == sum(p.n_tuples for p in written)
        table.pool.clear()  # the parent's cold cache: decode everything
        self._assert_same_run(warm, db.execute(self.SQL))
