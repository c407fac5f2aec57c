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

A row page is decoded in bulk into a :class:`~repro.storage.codec.TupleBatch`;
a columnar page's entry is its verified payload, its header checked by one
compiled call and its directory unparsed (a page the check refuses is parsed,
and raises, at the miss).  The books run once per page of every read
(:meth:`BufferPool.get_batch_traced`), and a block is one call,
:meth:`BufferPool.get_run`: the books in page order, then the pages end to
end.  A block of lazy columnar pages read with a miss is checked there by one
compiled pass and returned undecoded
(:class:`~repro.storage.columnar.CheckedRun`), for its reader to copy from
the pages' bytes once, straight into a fill.  A block whose pages all hit is
*kept* as one run, each page's entry a zero-copy ``slice`` of it, so a warm
block is read with no ``concat`` or decode while every entry is still the
view it handed out (evicting, invalidating or re-decoding any of its pages
drops it).

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
from functools import partial
from itertools import accumulate
from operator import is_
from typing import Any, NamedTuple, Sequence

from .. import obs
from .codec import TupleBatch
from .columnar import checked_run
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
        self.hits = self.misses = self.evictions = 0

    # ------------------------------------------------------------------
    def _resident(self, page_id: int, entry: tuple[TupleBatch, int, int]) -> bool:
        """Is ``entry`` in the simulated cache (a hit on access)?"""
        return entry[2] == self._generation and entry[1] == self.heap.pages[page_id].version

    def _read(self, page_id: int, attempt: int = 1) -> TupleBatch:
        """One verified read of ``page_id``: the cached batch if it still
        decodes the page (its generation aside: a surviving batch is reused
        by a simulated miss), else the page decoded — but only once this
        attempt's read has succeeded."""
        heap = self.heap
        payloads = heap.read_page_verified(page_id, attempt)
        entry = self._cache.get(page_id)
        if entry is not None and entry[1] == heap.pages[page_id].version:
            return entry[0]
        if page_id in self._runs:  # the page is decoded afresh: its run is stale
            self._drop_run(page_id)
        return heap.decode_payloads(page_id, payloads)

    def get_batch(self, page_id: int) -> TupleBatch:
        """The page as a columnar batch, via the cache."""
        return self.get_batch_traced(page_id)[0]

    def get_batch_traced(self, page_id: int) -> tuple[TupleBatch, bool]:
        """Like :meth:`get_batch`, also reporting whether it was a cache hit,
        which callers charge at memory speed instead of device speed."""
        if obs.enabled():
            return self._published(self._book, page_id)
        return self._book(page_id)

    def get_run(self, page_ids: Sequence[int]) -> tuple[TupleBatch, list[bool]]:
        """A block: its pages' rows end to end, and each page's hit flag.

        Every page is booked in order, exactly as one
        :meth:`get_batch_traced` after another would.  A block whose pages
        all hit is kept as the returned run; a later read returns that run,
        without a ``concat``, as long as every page's entry is still the
        view the run handed out.  A block read with a miss is kept by no
        one: a block of lazy columnar pages is checked here and returned
        undecoded (:class:`~repro.storage.columnar.CheckedRun`), any other
        is concatenated.  The hit flags are what the caller prices the read by.
        """
        if obs.enabled():
            return self._published(self._run, page_ids)
        return self._run(page_ids)

    def _published(self, read, arg):
        """``read(arg)``, publishing the counters it moves to the session registry
        once, also when it fails part-way (the hottest seam: only while tracing)."""
        before = self.hits, self.misses, self.evictions
        try:
            return read(arg)
        finally:
            after = self.hits, self.misses, self.evictions
            for name, was, now in zip(("hits", "misses", "evictions"), before, after):
                if now > was:
                    obs.inc(f"storage.bufferpool.{name}", now - was)

    def _book(self, page_id: int) -> tuple[TupleBatch, bool]:
        """The books, run once per page of every read: ``(batch, hit)``.  A hit
        moves its entry to the LRU end; a miss reads the page (:meth:`_read`,
        retried under faults), inserts it and, past ``capacity_pages``, evicts
        the LRU front.  Entries outside the simulated cache sit at the front,
        so they go first, and only a resident entry's eviction counts."""
        cache, heap = self._cache, self.heap
        entry = cache.get(page_id)
        if (
            entry is not None
            and entry[2] == self._generation
            and entry[1] == heap.pages[page_id].version
        ):
            cache.move_to_end(page_id)
            self.hits += 1
            return entry[0], True
        self.misses += 1
        if self.retry is None:
            batch = self._read(page_id)
        else:
            # The fix for the stale-batch hazard: a failed attempt means the
            # page is inside a fault window, so any batch cached from an
            # earlier read of it can no longer be trusted.  Drop it *before*
            # the retry, never after use.
            batch = self.retry.run(
                partial(self._read, page_id),
                stats=self.storage_stats,
                describe=f"page {page_id}",
                on_retry=lambda _exc: self.invalidate(page_id),
            )
        cache[page_id] = (batch, heap.pages[page_id].version, self._generation)
        if entry is not None:  # a new key is already at the LRU end
            cache.move_to_end(page_id)
        if len(cache) > self.capacity_pages:  # one insert: one eviction at most
            evicted, old = cache.popitem(last=False)
            if evicted in self._runs:
                self._drop_run(evicted)
            if old[2] == self._generation and old[1] == heap.pages[evicted].version:
                self.evictions += 1
        return batch, False

    def _run(self, page_ids: Sequence[int]) -> tuple[TupleBatch, list[bool]]:
        pages, hits = zip(*map(self._book, page_ids))
        hits = list(hits)
        kept = self._runs.get(page_ids[0])
        if kept is not None and len(kept.views) == len(pages) and all(map(is_, kept.views, pages)):
            return kept.batch, hits
        if not all(hits):
            return checked_run(pages) or TupleBatch.concat(pages), hits
        if len(pages) == 1:
            return pages[0], hits
        run = TupleBatch.concat(pages)
        # All hits means every page was resident throughout (a hit inserts
        # nothing, so nothing is evicted), so each still has its entry.
        self._keep_run(tuple(page_ids), run, pages)
        return run, hits

    def _keep_run(self, page_ids: tuple[int, ...], run: TupleBatch, pages) -> None:
        """Make each page's entry a zero-copy view of ``run`` (LRU order and
        residency unchanged), so the pages' own batches can be freed."""
        for page_id in page_ids:
            self._drop_run(page_id)  # a run of another block geometry
        ends = list(accumulate(map(len, pages), initial=0))
        kept = _Run(page_ids, run, tuple(map(run.slice, ends, ends[1:])))
        for page_id, view in zip(page_ids, kept.views):
            _batch, version, generation = self._cache[page_id]
            self._cache[page_id] = (view, version, generation)
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
        self.hits = self.misses = self.evictions = 0
