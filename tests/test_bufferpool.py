"""Tests for the LRU buffer pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import StorageMetrics
from repro.faults import FaultPlan, FaultSpec, FaultyHeapFile
from repro.storage import BufferPool, HeapFile, ReadExhaustedError, RetryPolicy


@pytest.fixture()
def heap(dense_binary) -> HeapFile:
    return HeapFile.from_dataset(dense_binary, page_bytes=1024)


class TestBufferPool:
    def test_miss_then_hit(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        pool.get_page(0)
        assert (pool.hits, pool.misses) == (0, 1)
        pool.get_page(0)
        assert (pool.hits, pool.misses) == (1, 1)

    def test_traced_flags(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        _, hit = pool.get_page_traced(2)
        assert hit is False
        _, hit = pool.get_page_traced(2)
        assert hit is True

    def test_lru_eviction(self, heap):
        pool = BufferPool(heap, capacity_pages=2)
        pool.get_page(0)
        pool.get_page(1)
        pool.get_page(2)  # evicts page 0
        assert pool.cached_pages == 2
        _, hit = pool.get_page_traced(0)
        assert hit is False

    def test_lru_recency_update(self, heap):
        pool = BufferPool(heap, capacity_pages=2)
        pool.get_page(0)
        pool.get_page(1)
        pool.get_page(0)  # page 0 becomes most recent
        pool.get_page(2)  # evicts page 1
        _, hit = pool.get_page_traced(0)
        assert hit is True

    def test_clear(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        pool.get_page(0)
        pool.clear()
        assert pool.cached_pages == 0
        _, hit = pool.get_page_traced(0)
        assert hit is False

    def test_hit_rate(self, heap):
        pool = BufferPool(heap, capacity_pages=8)
        assert pool.hit_rate == 0.0
        pool.get_page(0)
        pool.get_page(0)
        pool.get_page(0)
        assert pool.hit_rate == pytest.approx(2 / 3)

    def test_reset_stats(self, heap):
        pool = BufferPool(heap, capacity_pages=8)
        pool.get_page(0)
        pool.reset_stats()
        assert (pool.hits, pool.misses) == (0, 0)
        assert pool.cached_pages == 1  # cache content survives

    def test_invalid_capacity(self, heap):
        with pytest.raises(ValueError):
            BufferPool(heap, capacity_pages=0)

    def test_page_content_identity(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        tuples = pool.get_page(1)
        assert tuples[0].tuple_id == heap.read_page(1)[0].tuple_id

    def test_handed_out_page_is_immutable(self, heap):
        """Regression: callers must not be able to corrupt the shared cache."""
        pool = BufferPool(heap, capacity_pages=4)
        page = pool.get_page(0)
        assert isinstance(page, tuple)
        with pytest.raises((TypeError, AttributeError)):
            page[0] = None  # type: ignore[index]
        with pytest.raises(AttributeError):
            page.append(None)  # type: ignore[attr-defined]

    def test_cache_unaffected_by_reader_copies(self, heap):
        pool = BufferPool(heap, capacity_pages=4)
        first = pool.get_page(0)
        mutated = list(first)
        mutated.clear()  # a caller mangling its own copy...
        again = pool.get_page(0)
        assert len(again) == len(first)  # ...leaves the cached page intact
        assert again[0].tuple_id == heap.read_page(0)[0].tuple_id


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
        refreshed = pool.refresh(0)  # read call 2: torn, retried, re-verified
        assert stats.checksum_failures == 1
        assert stats.retries == 1
        assert stats.cache_invalidations >= 1
        # The recovered page is verified content, identical to the clean read.
        assert np.array_equal(clean.ids, pool.get_batch(0).ids)
        assert [t.tuple_id for t in refreshed] == list(clean.ids)

    def test_exhausted_read_leaves_nothing_cached(self, heap):
        pool, stats = self._faulty_pool(
            heap,
            FaultSpec("torn", unit="page", target=1, times=5, from_read=2),
            max_attempts=2,
        )
        pool.get_page(1)  # clean first read, cached
        with pytest.raises(ReadExhaustedError):
            pool.refresh(1)
        # The pre-fault batch must not have survived as a stale "hit".
        assert not pool.is_cached(1)
        assert stats.exhausted_reads == 1

    def test_recovery_recaches_verified_content(self, heap):
        pool, stats = self._faulty_pool(
            heap, FaultSpec("torn", unit="page", target=2, times=1, from_read=1)
        )
        tuples = pool.get_page(2)  # torn once, retried to success
        assert stats.retries == 1
        assert pool.is_cached(2)
        _, hit = pool.get_page_traced(2)  # the verified re-read is cached
        assert hit is True
        expected = heap.read_page(2)
        assert [t.tuple_id for t in tuples] == [t.tuple_id for t in expected]

    def test_unfaulted_pages_keep_their_entries(self, heap):
        pool, _ = self._faulty_pool(
            heap, FaultSpec("torn", unit="page", target=0, times=1, from_read=2)
        )
        pool.get_page(0)
        pool.get_page(3)
        pool.refresh(0)  # fault window on page 0 only
        assert pool.is_cached(3)  # neighbours are untouched
