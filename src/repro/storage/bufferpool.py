"""An LRU buffer pool over heap-file pages.

PostgreSQL reads pages through its buffer manager; CorgiPile's deep
integration sits below the UDA layer precisely so it can drive block-granular
page reads through this component.  The pool here caches decoded pages with
an LRU policy under one budget, a page count (``capacity_pages``, like
PostgreSQL's ``shared_buffers``), and counts hits, misses and evictions, so
experiments can report OS-cache-like effects (small datasets become
memory-resident after the first epoch — Section 7.3.4's observation about
higgs/susy/epsilon per-epoch times).  What a read costs on the simulated
clock is priced by the operators from the hit flags returned here.

A row page is decoded in bulk into a :class:`~repro.storage.codec.TupleBatch`
(one ``decode_page`` call); a columnar page's entry is its verified payload
bytes, its header checked by one compiled call and its directory unparsed (a
lazy batch that a single-page reader parses on first touch; a page the check
refuses is parsed at the miss, which raises what a damaged page raises).  The
books are one loop over page ids, run once per read: a page scan's
``get_batch_traced`` reads one page, and a block is one pool call,
:meth:`BufferPool.get_run`, the books in page order and then the pages'
batches end to end (a columnar block decoding there off the pages' bytes,
once per column).  A block whose pages all hit is
*kept* as that one run, and each page's entry becomes a zero-copy ``slice``
of it, so a warm block is read with no ``concat`` (and a warm columnar block
with no decode).  A run is served only while every page's entry is still
the view it handed out; evicting, invalidating or re-decoding (after a
write) any of its pages drops it.

The pool keeps two caches in one LRU.  The *simulated* cache — which accesses
the device clock charges as hits — is a generation stamp: :meth:`cold_start`
(every TRAIN's "cleared OS cache") bumps it, and an access hits only an entry
stamped with the current generation whose page has not been written since
(``Page.version``).  The *real* cache — the decoded batches — survives it.
Entries from earlier generations are older than every page touched since, so
LRU evicts them first and the current-generation entries are exactly what a
pool cleared at :meth:`cold_start` would hold: hit flags, evictions and the
simulated clock are unchanged.  (A write between two accesses of one
generation leaves its now-stale entry mid-LRU, which can shift an eviction
in a full pool; no TRAIN writes, and each begins with :meth:`cold_start`.)  A
simulated miss on a surviving entry still reads the page (fault seam, CRC
check, retries) and only skips the decode.

The pool is also the heap side's fault boundary: with a
:class:`~repro.storage.retry.RetryPolicy` attached, page reads that raise a
retryable fault (transient error, checksum mismatch) are reissued up to the
budget.  Every failed attempt **invalidates any cached entry for that page
before retrying** — a page that went through a fault window may have been
cached from a pre-fault decode, and serving that stale batch would silently
corrupt training; a cached batch is served only after this access's read of
its page succeeded (regression-tested in ``tests/test_bufferpool.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from operator import is_
from typing import Any, NamedTuple, Sequence

from .. import obs
from .codec import TupleBatch
from .heapfile import HeapFile
from .retry import RetryPolicy

__all__ = ["BufferPool"]


class _Run(NamedTuple):
    """A kept block: its batch and the page views it handed to the cache."""

    page_ids: tuple[int, ...]
    batch: TupleBatch
    views: tuple[TupleBatch, ...]


class BufferPool:
    """Caches decoded pages of a single heap file."""

    def __init__(
        self,
        heap: HeapFile,
        capacity_pages: int,
        retry: RetryPolicy | None = None,
        storage_stats: Any | None = None,
    ):
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.heap = heap
        self.capacity_pages = capacity_pages
        self.retry = retry
        self.storage_stats = storage_stats
        # page id -> (decoded batch, page version it decodes, generation)
        self._cache: OrderedDict[int, tuple[TupleBatch, int, int]] = OrderedDict()
        # page id -> the kept run whose view is the page's entry
        self._runs: dict[int, _Run] = {}
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _resident(self, page_id: int, entry: tuple[TupleBatch, int, int]) -> bool:
        """Is ``entry`` in the simulated cache (a hit on access)?"""
        return entry[2] == self._generation and entry[1] == self.heap.pages[page_id].version

    def _reusable(self, page_id: int) -> TupleBatch | None:
        """The cached batch of ``page_id`` if it still decodes the page (its
        generation aside: a surviving batch is reused by a simulated miss)."""
        entry = self._cache.get(page_id)
        if entry is None or entry[1] != self.heap.pages[page_id].version:
            return None
        return entry[0]

    def _read_batch(self, page_id: int) -> TupleBatch:
        """One verified page read, retried (with invalidation) under faults.

        The decode is skipped when a cached batch still decodes the page —
        but only once this attempt's read has succeeded.
        """

        def attempt_read(attempt: int) -> TupleBatch:
            payloads = self.heap.read_page_verified(page_id, attempt)
            batch = self._reusable(page_id)
            if batch is not None:
                return batch
            self._drop_run(page_id)  # the page is decoded afresh: its run is stale
            return self.heap.decode_payloads(page_id, payloads)

        if self.retry is None:
            return attempt_read(1)

        def on_retry(_exc: Exception) -> None:
            # The fix for the stale-batch hazard: a failed attempt means the
            # page is inside a fault window, so any batch cached from an
            # earlier read of it can no longer be trusted.  Drop it *before*
            # the retry, never after use.
            self.invalidate(page_id)

        return self.retry.run(
            attempt_read,
            stats=self.storage_stats,
            describe=f"page {page_id}",
            on_retry=on_retry,
        )

    def get_batch(self, page_id: int) -> TupleBatch:
        """The page as a columnar batch, via the cache."""
        return self.get_batch_traced(page_id)[0]

    def get_batch_traced(self, page_id: int) -> tuple[TupleBatch, bool]:
        """Like :meth:`get_batch`, also reporting whether it was a cache hit
        (a one-page read through the books).

        The hit flag lets callers charge the read at memory speed instead of
        device speed (the experiments' "cached after the first epoch"
        behaviour on small datasets).
        """
        batches, hits = self._get_pages((page_id,))
        return batches[0], hits[0]

    def get_run(self, page_ids: Sequence[int]) -> tuple[TupleBatch, list[bool]]:
        """A block: its pages' batches end to end, and each page's hit flag.

        Every page is accessed in order through the books, exactly as one
        :meth:`get_batch_traced` after another would.  A block whose pages
        all hit is kept as the returned run; a later read returns that run,
        without a ``concat``, as long as every page's entry is still the
        view the run handed out.  The hit flags are what the caller prices
        the read by.
        """
        pages, hits = self._get_pages(page_ids)
        if len(pages) == 1:
            return pages[0], hits
        kept = self._runs.get(page_ids[0])
        if kept is not None and len(kept.views) == len(pages) and all(map(is_, kept.views, pages)):
            return kept.batch, hits
        run = TupleBatch.concat(pages)
        # All hits means every page was resident throughout (a hit inserts
        # nothing, so nothing is evicted), so each still has its entry.
        if all(hits):
            self._keep_run(tuple(page_ids), run, pages)
        return run, hits

    def _get_pages(self, page_ids: Sequence[int]) -> tuple[list[TupleBatch], list[bool]]:
        """The books, one loop for every read: each page in order through
        the cache, ``(batches, hit flags)``.  A hit moves its entry to the LRU
        end; a miss reads the page (:meth:`_read_batch`), inserts it and, past
        ``capacity_pages``, evicts the LRU front.  Entries outside the
        simulated cache sit at the front, so they go first, and only a
        resident entry's eviction counts.  The counters are published once
        per call, also when a read fails (a miss) part-way.
        """
        cache, pages = self._cache, self.heap.pages
        gen, capacity = self._generation, self.capacity_pages
        batches: list[TupleBatch] = []
        hits: list[bool] = []
        n_misses = n_evictions = 0
        try:
            for page_id in page_ids:
                entry = cache.get(page_id)
                hit = (  # the hot path: _resident inlined
                    entry is not None and entry[2] == gen and entry[1] == pages[page_id].version
                )
                if hit:
                    cache.move_to_end(page_id)
                    batch = entry[0]
                else:
                    n_misses += 1
                    batch = self._read_batch(page_id)
                    cache[page_id] = (batch, pages[page_id].version, gen)
                    cache.move_to_end(page_id)
                    if len(cache) > capacity:  # one insert: one eviction at most
                        evicted, old = cache.popitem(last=False)
                        self._drop_run(evicted)
                        n_evictions += self._resident(evicted, old)
                batches.append(batch)
                hits.append(hit)
        finally:
            n_hits = hits.count(True)
            self.hits += n_hits
            self.misses += n_misses
            self.evictions += n_evictions
            # The hottest storage seam: the hit/miss registry counters are
            # published only while telemetry is on.
            if obs.enabled():
                for name, n in (("hits", n_hits), ("misses", n_misses)):
                    if n:
                        obs.inc(f"storage.bufferpool.{name}", n)
            if n_evictions:
                obs.inc("storage.bufferpool.evictions", n_evictions)
        return batches, hits

    def _keep_run(self, page_ids: tuple[int, ...], run: TupleBatch, pages) -> None:
        """Make each page's entry a zero-copy view of ``run`` (LRU order and
        residency unchanged), so the pages' own batches can be freed."""
        for page_id in page_ids:
            self._drop_run(page_id)  # a run of another block geometry
        views = []
        lo = 0
        for page_id, page in zip(page_ids, pages):
            hi = lo + len(page)
            view = run.slice(lo, hi)
            _batch, version, generation = self._cache[page_id]
            self._cache[page_id] = (view, version, generation)
            views.append(view)
            lo = hi
        kept = _Run(page_ids, run, tuple(views))
        for page_id in page_ids:
            self._runs[page_id] = kept

    def _drop_run(self, page_id: int) -> None:
        """Forget the kept run holding ``page_id``, if any (its views stay
        valid page entries; the run is just no longer served)."""
        kept = self._runs.get(page_id)
        if kept is not None:
            for run_page in kept.page_ids:
                del self._runs[run_page]

    # ------------------------------------------------------------------
    def invalidate(self, page_id: int) -> bool:
        """Drop the cached entry for one page (if present).

        Called by the retry path after every failed read attempt, and by
        chaos harnesses after a known fault window, so a stale pre-fault
        batch can never be served, as a hit or as a skipped decode.  Returns
        (and records) whether the page was in the simulated cache.
        """
        entry = self._cache.pop(page_id, None)
        self._drop_run(page_id)
        dropped = entry is not None and self._resident(page_id, entry)
        if dropped:
            (self.storage_stats or obs.SESSION_STORAGE).record_cache_invalidation()
        return dropped

    @property
    def cached_pages(self) -> int:
        """Pages in the simulated cache (what an access would hit)."""
        return sum(self._resident(pid, entry) for pid, entry in self._cache.items())

    def is_cached(self, page_id: int) -> bool:
        entry = self._cache.get(page_id)
        return entry is not None and self._resident(page_id, entry)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def cold_start(self) -> None:
        """Empty the simulated cache, keeping the decoded batches.

        The experiments clear the OS cache before a run; every TRAIN starts
        here.  O(1): entries of older generations stop counting as hits.
        """
        self._generation += 1

    def clear(self) -> None:
        """Drop all cached pages, decoded batches and kept runs included."""
        self._cache.clear()
        self._runs.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
