"""An LRU buffer pool over heap-file pages.

PostgreSQL reads pages through its buffer manager; CorgiPile's deep
integration sits below the UDA layer precisely so it can drive block-granular
page reads through this component.  The pool here caches decoded pages with
an LRU policy and counts hits/misses, so experiments can report OS-cache-like
effects (small datasets become memory-resident after the first epoch —
Section 7.3.4's observation about higgs/susy/epsilon per-epoch times).

Pages are decoded in bulk into a columnar
:class:`~repro.storage.codec.TupleBatch` (one ``decode_page`` call per miss),
and that batch is the cache entry the Volcano operators read
(``get_batch_traced``).

The pool is also the heap side's fault boundary: with a
:class:`~repro.storage.retry.RetryPolicy` attached, page reads that raise a
retryable fault (transient error, checksum mismatch) are reissued up to the
budget.  Every failed attempt **invalidates any cached entry for that page
before retrying** — a page that went through a fault window may have been
cached from a pre-fault decode, and serving that stale batch would silently
corrupt training; only checksum-verified reads may live in the cache
(regression-tested in ``tests/test_bufferpool.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from .. import obs
from .codec import TupleBatch
from .heapfile import HeapFile
from .retry import RetryPolicy

__all__ = ["BufferPool"]


def _decoded_nbytes(batch: TupleBatch) -> int:
    """Real decoded memory a cached batch pins (not the encoded page size).

    Lazy columnar batches report only the chunks materialised so far — the
    figure *grows* as consumers touch more columns, which is why the pool
    re-enforces its byte budget on every access, not just on insert.
    """
    lazy = getattr(batch, "decoded_nbytes", None)
    if lazy is not None:
        return int(lazy)
    total = batch.ids.nbytes + batch.labels.nbytes
    if batch.is_sparse:
        total += batch.indptr.nbytes + batch.indices.nbytes + batch.values.nbytes
    else:
        total += batch.dense.nbytes
    return total


class BufferPool:
    """Caches decoded pages of a single heap file."""

    def __init__(
        self,
        heap: HeapFile,
        capacity_pages: int,
        retry: RetryPolicy | None = None,
        storage_stats: Any | None = None,
        capacity_bytes: int | None = None,
    ):
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive when given")
        self.heap = heap
        self.capacity_pages = capacity_pages
        #: Optional budget on *decoded* bytes cached — the real RSS the pool
        #: pins, not the encoded page size (a zlib'd or bit-packed page can
        #: decode to many times its stored footprint).
        self.capacity_bytes = capacity_bytes
        self.retry = retry
        self.storage_stats = storage_stats
        self._cache: OrderedDict[int, TupleBatch] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _read_batch(self, page_id: int) -> TupleBatch:
        """One verified page read, retried (with invalidation) under faults."""
        if self.retry is None:
            return self.heap.read_page_batch(page_id)

        def on_retry(_exc: Exception) -> None:
            # The fix for the stale-batch hazard: a failed attempt means the
            # page is inside a fault window, so any batch cached from an
            # earlier read of it can no longer be trusted.  Drop it *before*
            # the retry, never after use.
            self.invalidate(page_id)

        return self.retry.run(
            lambda attempt: self.heap.read_page_batch(page_id, attempt=attempt),
            stats=self.storage_stats,
            describe=f"page {page_id}",
            on_retry=on_retry,
        )

    def get_batch(self, page_id: int) -> TupleBatch:
        """The page as a columnar batch, via the cache."""
        return self.get_batch_traced(page_id)[0]

    def get_batch_traced(self, page_id: int) -> tuple[TupleBatch, bool]:
        """Like :meth:`get_batch`, also reporting whether it was a cache hit.

        The hit flag lets callers charge the read at memory speed instead of
        device speed (the experiments' "cached after the first epoch"
        behaviour on small datasets).
        """
        # Page access is the hottest storage seam, so the registry counters
        # are published only while telemetry is on; the local hit/miss ints
        # stay always-available for hit_rate and the planner.
        if page_id in self._cache:
            self._cache.move_to_end(page_id)
            self.hits += 1
            if obs.enabled():
                obs.inc("storage.bufferpool.hits")
            # Lazy entries grow between accesses (columns materialise after
            # the batch left the pool), so the byte budget is re-checked on
            # hits too — the just-touched page is protected as MRU.
            self._enforce_capacity()
            return self._cache[page_id], True
        self.misses += 1
        if obs.enabled():
            obs.inc("storage.bufferpool.misses")
        batch = self._cache[page_id] = self._read_batch(page_id)
        self._enforce_capacity()
        return batch, False

    def _enforce_capacity(self) -> None:
        while len(self._cache) > self.capacity_pages or (
            self.capacity_bytes is not None
            and len(self._cache) > 1
            and self.decoded_bytes > self.capacity_bytes
        ):
            self._cache.popitem(last=False)
            self.evictions += 1
            obs.inc("storage.bufferpool.evictions")

    # ------------------------------------------------------------------
    def invalidate(self, page_id: int) -> bool:
        """Drop the cached entry for one page (if present).

        Called by the retry path after every failed read attempt, and by
        chaos harnesses after a known fault window, so a stale pre-fault
        batch can never be served as a "hit".
        """
        dropped = self._cache.pop(page_id, None) is not None
        if dropped:
            (self.storage_stats or obs.SESSION_STORAGE).record_cache_invalidation()
        return dropped

    @property
    def cached_pages(self) -> int:
        return len(self._cache)

    @property
    def decoded_bytes(self) -> int:
        """Decoded bytes currently pinned by the cache (what eviction charges)."""
        return sum(_decoded_nbytes(batch) for batch in self._cache.values())

    def is_cached(self, page_id: int) -> bool:
        return page_id in self._cache

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all cached pages (the experiments clear the OS cache)."""
        self._cache.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
