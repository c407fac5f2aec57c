"""Tests for the LRU buffer pool."""

from __future__ import annotations

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.data import make_binary_dense, make_binary_sparse
from repro.data.sparse import SparseRow
from repro.db import BlockShuffleOperator, MiniDB, TupleShuffleOperator
from repro.obs import StorageMetrics
from repro.faults import FaultPlan, FaultSpec, FaultyHeapFile
from repro.storage import BufferPool, HeapFile, LazyTupleBatch, ReadExhaustedError, RetryPolicy
from repro.storage import columnar
from repro.storage.codec import TupleBatch, TupleSchema

from .conftest import CopyCountingLib, per_page_run


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


#: A table and its page size: dense rows, or sparse rows whose lazy
#: columnar pages grow as a consumer touches their columns.
_tables = st.sampled_from([(_DENSE, 1024), (_SPARSE, 2048)])


class TestResidencyGeneration:
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    @settings(max_examples=60, deadline=None)
    @given(
        stream=_streams,
        capacity=st.integers(1, _N_PAGES),
        table=_tables,
        touch=st.booleans(),
    )
    def test_page_budget_pool_matches_a_clearing_pool(
        self, layout, stream, capacity, table, touch
    ):
        def make_heap():
            heap = HeapFile.from_dataset(table[0], page_bytes=table[1], layout=layout)
            assert heap.n_pages >= _N_PAGES
            return heap

        _assert_same_simulated_cache(make_heap, stream, touch=touch, capacity_pages=capacity)

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


# ----------------------------------------------------------------------
# Kept runs: get_run keeps a block whose pages all hit as one batch.  The
# oracle is a pool that reads the block page by page and concats.
# ----------------------------------------------------------------------


class _PerPagePool(BufferPool):
    get_run = per_page_run


_COLUMNS = ("ids", "labels", "dense", "indptr", "indices", "values")


def _assert_same_batch(got, want) -> None:
    assert got.is_sparse == want.is_sparse and len(got) == len(want)
    for name in _COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            np.testing.assert_array_equal(a, b, err_msg=name)


#: One step: ("read", block), ("cold",), or a row-heap write at a position.
#: Reads and writes stay in the first few blocks, so kept runs meet writes.
_block_steps = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 3)),
        st.just(("cold",)),
        st.tuples(st.sampled_from(["insert", "update", "delete"]), st.integers(0, 63)),
    ),
    max_size=60,
)


def _write(heap: HeapFile, kind: str, at: int) -> None:
    d = heap.schema.n_features
    if kind == "insert":
        heap.insert(100_000 + at, 1.0, np.full(d, 0.25))
    elif kind == "update":
        heap.update(heap.rid_of(at % heap.n_tuples), 200_000 + at, -1.0, np.full(d, 0.5))
    else:
        heap.delete(heap.rid_of(at % heap.n_tuples))


def _assert_runs_match_per_page(make_heap, steps, per_block, touch=False, **pool_args):
    """Step by step, the run pool answers every block read as the per-page
    pool does — rows, hit flags, counters, LRU order — and never decodes
    more than it."""
    pool, ref = BufferPool(make_heap(), **pool_args), _PerPagePool(make_heap(), **pool_args)
    for step in steps:
        if step[0] == "cold":
            pool.cold_start()
            ref.cold_start()
        elif step[0] != "read":
            if pool.heap.layout == "row":
                _write(pool.heap, *step)
                _write(ref.heap, *step)
        else:
            n_pages = pool.heap.n_pages
            lo = step[1] % -(-n_pages // per_block) * per_block
            page_ids = range(lo, min(lo + per_block, n_pages))
            batch, hits = pool.get_run(page_ids)
            want, want_hits = ref.get_run(page_ids)
            _assert_same_batch(batch, want)
            assert hits == want_hits
            if touch and hasattr(batch, "materialize"):  # a one-page lazy block
                batch.materialize()
                want.materialize()
        assert (pool.hits, pool.misses, pool.evictions) == (ref.hits, ref.misses, ref.evictions)
        assert pool.cached_pages == ref.cached_pages
        assert list(pool._cache) == list(ref._cache)
    assert pool.heap.decode_count <= ref.heap.decode_count


class TestBlockRuns:
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    @settings(max_examples=60, deadline=None)
    @given(
        steps=_block_steps,
        per_block=st.integers(1, 4),
        capacity=st.integers(1, 2 * _N_PAGES),
        table=_tables,
        touch=st.booleans(),
    )
    def test_page_budget_pool_matches_per_page_reads(
        self, layout, steps, per_block, capacity, table, touch
    ):
        def make_heap():
            return HeapFile.from_dataset(table[0], page_bytes=table[1], layout=layout)

        _assert_runs_match_per_page(
            make_heap, steps, per_block, touch=touch, capacity_pages=capacity
        )

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_a_warm_block_is_one_kept_run(self, layout):
        heap = HeapFile.from_dataset(_DENSE, page_bytes=1024, layout=layout)
        pool = BufferPool(heap, capacity_pages=16)
        block = range(2, 6)
        cold, hits = pool.get_run(block)
        assert hits == [False] * 4
        kept, hits = pool.get_run(block)  # all hits: concatenated and kept
        assert hits == [True] * 4 and kept is not cold
        assert pool.get_run(block) == (kept, [True] * 4)
        for page_id in block:  # the entries are views into the run
            assert np.shares_memory(pool.get_batch(page_id).ids, kept.ids)
        decoded = heap.decode_count
        pool.cold_start()
        assert pool.get_run(block) == (kept, [False] * 4)  # misses, no decode
        assert heap.decode_count == decoded
        _assert_same_batch(kept, TupleBatch.concat([heap.read_page_batch(p) for p in block]))

    @pytest.mark.parametrize("drop", ["invalidate", "write", "evict", "clear"])
    def test_losing_a_page_drops_the_run(self, drop):
        heap = HeapFile.from_dataset(_DENSE, page_bytes=1024)
        pool = BufferPool(heap, capacity_pages=4)
        block = range(0, 4)
        pool.get_run(block)
        kept, _ = pool.get_run(block)
        if drop == "invalidate":
            pool.invalidate(2)
        elif drop == "write":
            on_page_2 = heap.rid_of(heap.pages[0].n_tuples + heap.pages[1].n_tuples)
            heap.update(on_page_2, 7, 1.0, np.zeros(heap.schema.n_features))
        elif drop == "evict":
            pool.get_batch(5)  # page 0 is the LRU page
        else:
            pool.clear()
        again, hits = pool.get_run(block)  # a write is seen here, on access
        assert again is not kept and not all(hits) and not pool._runs
        _assert_same_batch(again, TupleBatch.concat([heap.read_page_batch(p) for p in block]))


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


# ----------------------------------------------------------------------
# A block is one decode: the pool reads each page's verified payload and
# parses its directory; the block's columns are checked and decoded once,
# from the pages' kept directory entries.  The oracle is per_page_run.
# ----------------------------------------------------------------------


def _broken(payload: bytes, how: str) -> bytes:
    """One page payload made unreadable at its directory parse."""
    if how == "truncated":  # the header survives, the directory is cut short
        return payload[:16 + 7]
    if how == "magic":
        return b"XXXX" + payload[4:]
    # "past": the first chunk's length now runs past the payload
    at = 16 + 8  # directory entry 0, its u32 length field
    return payload[:at] + len(payload).to_bytes(4, "little") + payload[at + 4 :]


def _heap_with_a_bad_page(bad: int, how: str) -> HeapFile:
    heap = HeapFile.from_dataset(_SPARSE, page_bytes=2048, layout="columnar")
    broken = _broken(heap.pages[bad].tuple_payloads()[0], how)
    read = heap._read_page_payloads  # the fault seam

    def seam(page_id: int, attempt: int = 1) -> list[bytes]:
        return [broken] if page_id == bad else read(page_id, attempt)

    heap._read_page_payloads = seam
    return heap


def _sparse_pages(pages) -> HeapFile:
    """A columnar heap with one page per entry of ``pages``: each a list of
    rows, each row its feature indices."""
    d = 3000
    heap = HeapFile(TupleSchema(d, sparse=True), page_bytes=1 << 20, layout="columnar")
    tuple_id = 0
    for rows in pages:
        for indices in rows:
            indices = np.asarray(indices, dtype=np.int64)
            heap.append(tuple_id, float(tuple_id % 2), SparseRow(indices, indices * 0.5 + 1.0, d))
            tuple_id += 1
        heap.flush()
    assert heap.n_pages == len(pages)
    return heap


class TestBlockDecode:
    @pytest.mark.parametrize("how", ["truncated", "magic", "past"])
    def test_a_bad_page_raises_what_a_page_read_raises(self, how):
        bad, block = 2, range(0, 4)
        with pytest.raises(ValueError) as want:
            _heap_with_a_bad_page(bad, how).read_page_batch(bad)
        pool = BufferPool(_heap_with_a_bad_page(bad, how), capacity_pages=8)
        ref = _PerPagePool(_heap_with_a_bad_page(bad, how), capacity_pages=8)
        obs.reset()
        obs.enable()
        try:
            with pytest.raises(ValueError) as got:
                pool.get_run(block)
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        with pytest.raises(ValueError) as ref_got:
            ref.get_run(block)
        assert str(got.value) == str(want.value) == str(ref_got.value)
        assert bad not in pool._cache and not pool.is_cached(bad)
        assert list(pool._cache) == list(ref._cache) == [0, 1]
        assert (pool.hits, pool.misses, pool.evictions) == (ref.hits, ref.misses, ref.evictions)
        assert counters["storage.bufferpool.misses"] == pool.misses == bad + 1
        assert pool.heap.decode_count == ref.heap.decode_count

    def test_mixed_packed_widths_and_an_empty_page_equal_per_page_reads(self):
        pages = [
            [[3, 17, 200], [1, 2], [9]],  # indices packed in 1 byte
            [[5, 2999], [40, 1000, 2500]],  # indices packed in 2 bytes
            [[], []],  # no stored features: empty indices / values chunks
            [[7]],  # one value: delta-coded or not, it decodes the same
            [[0, 1, 2, 3], [255]],
        ]
        for block in (range(0, 5), range(1, 4), range(2, 4)):
            pool = BufferPool(_sparse_pages(pages), capacity_pages=8)
            ref = _PerPagePool(_sparse_pages(pages), capacity_pages=8)
            got, hits = pool.get_run(block)
            want, want_hits = ref.get_run(block)
            _assert_same_batch(got, want)
            assert hits == want_hits == [False] * len(block)
            eager = TupleBatch.concat([ref.heap.read_page_batch(p).materialize() for p in block])
            _assert_same_batch(got, eager)

    def test_a_cold_train_checks_no_chunk_page_by_page(self, monkeypatch):
        """The block path never takes the single-page column decode: every
        chunk of a cold sparse columnar TRAIN is checked by the run decode."""
        db = MiniDB(page_bytes=1024, pool_pages=4)
        data = make_binary_sparse(600, 300, nnz_per_row=8, separation=1.0, seed=11)
        db.create_table("t", data, layout="columnar")
        heap = db.catalog.get("t").heap
        assert heap.n_pages > 8 and heap.n_pages % 4 != 1  # no one-page block
        stores = []
        store = LazyTupleBatch._store

        def counted(self, col):
            stores.append(col)
            return store(self, col)

        monkeypatch.setattr(LazyTupleBatch, "_store", counted)
        db.execute("SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 4KB, seed = 1")
        assert db.catalog.get("t").pool.misses > 2 * heap.n_pages - 1
        assert stores == []


# ----------------------------------------------------------------------
# Cold fills: a block read with a miss is a checked, undecoded run, and a
# TupleShuffle fill of such runs is one compiled copy from the pages' bytes.
# The oracle is the same TRAIN on a pool that holds the table.
# ----------------------------------------------------------------------


def _fills_and_straddles(events) -> tuple[int, int]:
    """Fills, and blocks a fill boundary cuts, from the ``("pass",)``,
    ``("block", rows)`` and ``("fill", rows)`` events of a TRAIN."""
    fills = straddles = 0
    passes = [[]]
    for event in events:
        if event[0] == "pass":
            passes.append([])
        else:
            passes[-1].append(event)
    for events in passes:
        block_ends = set(accumulate(n for kind, n in events if kind == "block"))
        fill_ends = list(accumulate(n for kind, n in events if kind == "fill"))
        fills += len(fill_ends)
        straddles += sum(end not in block_ends for end in fill_ends[:-1])
    return fills, straddles


class TestColdFills:
    SQL = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 4KB, seed = 1"
    DATA = make_binary_sparse(600, 300, nnz_per_row=8, separation=1.0, seed=11)

    def _train(self, **pool):
        db = MiniDB(page_bytes=1024, **pool)
        db.create_table("t", self.DATA, layout="columnar")
        return db.execute(self.SQL), db.catalog.get("t")

    @pytest.mark.skipif(columnar._LIB is None, reason="compiled library not loaded")
    def test_a_cold_train_copies_each_fill_once(self, monkeypatch):
        events = []
        load, refill, reset = (
            BlockShuffleOperator._load_next_block,
            TupleShuffleOperator._refill,
            TupleShuffleOperator._reset,
        )

        def counted_load(op):
            block = load(op)
            if block is not None:
                events.append(("block", len(block)))
            return block

        def counted_refill(op):
            fill = refill(op)
            if fill is not None:
                events.append(("fill", len(fill)))
            return fill

        monkeypatch.setattr(BlockShuffleOperator, "_load_next_block", counted_load)
        monkeypatch.setattr(TupleShuffleOperator, "_refill", counted_refill)
        monkeypatch.setattr(
            TupleShuffleOperator, "_reset", lambda op: events.append(("pass",)) or reset(op)
        )
        lib = CopyCountingLib(columnar._LIB)
        monkeypatch.setattr(columnar, "_LIB", lib)
        cold, table = self._train(pool_pages=4)
        monkeypatch.undo()
        assert table.heap.n_pages > 8 * table.pool.capacity_pages  # every block read misses
        fills, straddles = _fills_and_straddles(events)
        assert fills > 2 and straddles > 0
        assert 0 < lib.copies <= fills + straddles
        warm, table = self._train()  # a pool that holds the table
        assert table.pool.hits > 0
        np.testing.assert_array_equal(cold.model.parameter_vector(), warm.model.parameter_vector())
