"""Heap DML edge cases: slot reuse, RID-stable compaction, stale batches."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.sparse import SparseRow
from repro.db import Catalog, UnsupportedLayoutError
from repro.storage.heapfile import ColumnarMutationError, HeapFile
from repro.storage.page import Page
from repro.storage.rid import RID

from tests import _dml_workload as workload


class TestPageCompaction:
    def test_replace_compacts_in_place_keeping_slot_ids(self):
        """Dead space is reclaimed without renumbering surviving slots."""
        page = Page(0, capacity=100)
        slots = [page.append(bytes([i]) * 30) for i in range(3)]
        assert slots == [0, 1, 2]
        page.delete(0)
        assert page.dead_bytes == 30
        # 35 bytes: doesn't fit the 10 free bytes, does after compaction.
        page.replace(2, b"\x07" * 35)
        assert not page.is_live(0)
        assert page.payload(1) == b"\x01" * 30
        assert page.payload(2) == b"\x07" * 35
        assert page.live_slots() == [1, 2]
        assert page.dead_bytes == 0

    def test_append_reuses_dead_space_after_compact(self):
        page = Page(0, capacity=100)
        for i in range(3):
            page.append(bytes([i]) * 30)
        page.delete(1)
        slot = page.append(b"\xaa" * 32)  # only fits via compaction
        assert page.is_live(slot)
        assert page.payload(slot) == b"\xaa" * 32
        assert page.payload(0) == b"\x00" * 30

    def test_replace_too_large_raises(self):
        page = Page(0, capacity=100)
        page.append(b"a" * 40)
        page.append(b"b" * 40)
        with pytest.raises(ValueError):
            page.replace(0, b"c" * 70)
        assert page.payload(0) == b"a" * 40  # untouched on failure


class TestHeapDML:
    def _heap(self, dataset, page_bytes=1024):
        return HeapFile.from_dataset(dataset, page_bytes=page_bytes)

    def test_insert_reuses_deleted_slot_space(self, dense_binary):
        heap = self._heap(dense_binary)
        n_pages = heap.n_pages
        victim = RID(3, 2)
        tup = heap.read_tuple(heap.position_of(victim))
        heap.delete(victim)
        rid = heap.insert(9999, tup.label, tup.features)
        # Same-size tuple lands in the freed space on the same page —
        # first-fit found the hole instead of growing the heap.
        assert rid.page_id == 3
        assert heap.n_pages == n_pages
        assert heap.read_tuple(heap.position_of(rid)).tuple_id == 9999

    def test_delete_keeps_other_rids_stable(self, dense_binary):
        heap = self._heap(dense_binary)
        keep = RID(2, 4)
        before = heap.read_tuple(heap.position_of(keep))
        heap.delete(RID(2, 1))
        heap.delete(RID(2, 2))
        after = heap.read_tuple(heap.position_of(keep))
        assert after.tuple_id == before.tuple_id
        assert np.array_equal(np.asarray(after.features), np.asarray(before.features))

    def test_update_in_place_preserves_rid(self, dense_binary):
        heap = self._heap(dense_binary)
        rid = RID(1, 3)
        tup = heap.read_tuple(heap.position_of(rid))
        new_features = np.asarray(tup.features, dtype=float).copy()
        new_features[0] = -42.5
        got = heap.update(rid, tup.tuple_id, tup.label, new_features)
        assert got == rid
        assert heap.read_tuple(heap.position_of(rid)).features[0] == -42.5

    def test_update_moves_when_page_overflows(self, sparse_binary):
        """A grown sparse row that no longer fits relocates: new RID, old
        slot dead — exactly the delete + first-fit insert contract."""
        heap = self._heap(sparse_binary, page_bytes=512)
        rid = heap.rid_of(0)
        tup = heap.read_tuple(0)
        from repro.data import SparseRow

        wide = SparseRow(
            np.arange(100, dtype=np.int32),
            np.ones(100, dtype=np.float64),
            sparse_binary.n_features,
        )
        new_rid = heap.update(rid, tup.tuple_id, tup.label, wide)
        assert new_rid != rid
        assert not heap.pages[rid.page_id].is_live(rid.slot)
        moved = heap.read_tuple(heap.position_of(new_rid))
        assert moved.tuple_id == tup.tuple_id

    def test_columnar_heap_rejects_dml(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024, layout="columnar")
        with pytest.raises(ColumnarMutationError):
            heap.insert(0, 1.0, np.zeros(dense_binary.n_features))
        with pytest.raises(ColumnarMutationError):
            heap.delete(RID(0, 0))
        with pytest.raises(ColumnarMutationError):
            heap.update(RID(0, 0), 0, 1.0, np.zeros(dense_binary.n_features))


class TestCatalogDML:
    def _table(self, dataset, **kwargs):
        catalog = Catalog(page_bytes=1024, **kwargs)
        info = catalog.create_table("t", dataset)
        catalog.create_index("t", "ix_f0", "f0")
        return catalog, info

    def test_insert_delete_update_keep_indexes_consistent(self, dense_binary):
        _, info = self._table(dense_binary)
        rng = np.random.default_rng(3)
        rids = info.insert_rows(
            [(1.0, rng.standard_normal(dense_binary.n_features)) for _ in range(5)]
        )
        assert len(rids) == 5
        info.verify_indexes()
        info.delete_rids([rids[0], info.heap.rid_of(10)])
        info.verify_indexes()
        info.update_rids([rids[2]], [("f0", 77.25), ("label", -1.0)])
        info.verify_indexes()
        position = info.heap.position_of(rids[2])
        assert info.dataset.X[position, 0] == 77.25
        assert info.dataset.y[position] == -1.0

    def test_dataset_rebuilt_after_dml(self, dense_binary):
        _, info = self._table(dense_binary)
        n = info.n_tuples
        info.delete_rids([info.heap.rid_of(0)])
        assert info.n_tuples == n - 1
        assert info.dataset.n_tuples == n - 1

    def test_columnar_table_raises_typed_error(self, dense_binary):
        catalog = Catalog(page_bytes=1024)
        info = catalog.create_table("t", dense_binary, layout="columnar")
        with pytest.raises(UnsupportedLayoutError, match="INSERT"):
            info.insert_rows([(1.0, np.zeros(dense_binary.n_features))])
        with pytest.raises(UnsupportedLayoutError, match="DELETE"):
            info.delete_rids([RID(0, 0)])
        with pytest.raises(UnsupportedLayoutError, match="UPDATE"):
            info.update_rids([RID(0, 0)], [("f0", 1.0)])


class TestBufferPoolInvalidation:
    def test_update_invalidates_cached_batch(self, dense_binary):
        """Regression: a cached page batch must not survive an UPDATE."""
        catalog = Catalog(page_bytes=1024)
        info = catalog.create_table("t", dense_binary)
        rid = info.heap.rid_of(3)
        stale, hit = info.pool.get_batch_traced(rid.page_id)
        assert not hit  # first touch fills the cache
        _, hit = info.pool.get_batch_traced(rid.page_id)
        assert hit  # and it sticks
        row = info.heap.slot_row_map(rid.page_id)[rid.slot]
        old_value = float(stale.dense[row, 0])
        info.update_rids([rid], [("f0", old_value + 10.0)])
        fresh, hit = info.pool.get_batch_traced(rid.page_id)
        assert not hit  # UPDATE evicted the page
        assert fresh.dense[row, 0] == old_value + 10.0
        assert stale.dense[row, 0] == old_value  # old batch is a snapshot

    def test_delete_invalidates_cached_batch(self, dense_binary):
        catalog = Catalog(page_bytes=1024)
        info = catalog.create_table("t", dense_binary)
        rid = info.heap.rid_of(0)
        before = info.pool.get_batch(rid.page_id)
        info.delete_rids([rid])
        after, hit = info.pool.get_batch_traced(rid.page_id)
        assert not hit
        assert len(after.ids) == len(before.ids) - 1

    def test_insert_invalidates_cached_batch(self, dense_binary):
        catalog = Catalog(page_bytes=1024)
        info = catalog.create_table("t", dense_binary)
        victim = info.heap.rid_of(5)
        page_id = victim.page_id
        info.delete_rids([victim])
        before = info.pool.get_batch(page_id)
        rng = np.random.default_rng(0)
        [rid] = info.insert_rows([(1.0, rng.standard_normal(dense_binary.n_features))])
        assert rid.page_id == page_id  # first-fit reused the hole
        after, hit = info.pool.get_batch_traced(page_id)
        assert not hit
        assert len(after.ids) == len(before.ids) + 1


def _linear_first_fit(heap: HeapFile, n_bytes: int) -> Page | None:
    """The oracle: the first-fit page scan the free space map replaces."""
    return next((page for page in heap.pages if page.can_fit(n_bytes)), None)


class TestFreeSpaceMap:
    """INSERT's first fit through the free space map picks the page the
    linear ``can_fit`` scan picks, under any churn of writes."""

    @pytest.mark.parametrize("kind", ["dense", "sparse", "compressed"])
    def test_churn_gives_the_linear_scan_rids(self, kind, dense_binary, sparse_binary):
        dataset = sparse_binary if kind == "sparse" else dense_binary
        heaps = [
            HeapFile.from_dataset(dataset, page_bytes=1024, compress=kind == "compressed")
            for _ in range(2)
        ]
        oracle = heaps[1]
        oracle._first_fit = lambda n_bytes: _linear_first_fit(oracle, n_bytes)
        rng = np.random.default_rng(29)
        d = dataset.n_features

        def features():
            if kind != "sparse":
                # Few distinct values: compressed payloads vary in size.
                return rng.integers(0, rng.integers(1, 40), size=d).astype(np.float64)
            nnz = int(rng.integers(1, 40))
            cols = np.sort(rng.choice(d, size=nnz, replace=False))
            return SparseRow(cols.astype(np.int64), rng.standard_normal(nnz), d)

        next_id = dataset.n_tuples
        for _ in range(600):
            op = rng.choice(["insert", "delete", "update"], p=[0.4, 0.3, 0.3])
            live = [RID(p.page_id, s) for p in heaps[0].pages for s in p.live_slots()]
            if op == "insert":
                row = (next_id, float(rng.integers(0, 2)), features())
                next_id += 1
                got = [heap.insert(*row) for heap in heaps]
            elif op == "delete":
                rid = live[int(rng.integers(len(live)))]
                got = [heap.delete(rid) for heap in heaps]
            else:
                rid = live[int(rng.integers(len(live)))]
                row = (next_id, 1.0, features())
                got = [heap.update(rid, *row) for heap in heaps]
            assert got[0] == got[1], op
        assert [p.slot_lengths() for p in heaps[0].pages] == [
            p.slot_lengths() for p in heaps[1].pages
        ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_ops=st.integers(1, 90),
    page_bytes=st.sampled_from([256, 512, 1024]),
    sparse=st.booleans(),
)
def test_byte_totals_track_every_write(seed, n_ops, page_bytes, sparse):
    """``payload_bytes`` / ``total_bytes`` are kept by the writes, not summed
    per read: after every op of a seeded DML stream (inserts into reused
    slots and fresh pages, deletes, in-place and moving updates, compaction)
    they equal the sums over the pages, and a bulk append after DML too."""
    _catalog, info = workload.make_table(None, page_bytes=page_bytes, sparse=sparse)
    heap = info.heap

    def check(_completed: int) -> None:
        assert heap.payload_bytes == sum(page.used_bytes for page in heap.pages)
        assert heap.total_bytes == sum(page.capacity for page in heap.pages)

    check(0)
    workload.apply_ops(info, n_ops, seed=seed, progress=check)
    tup = heap.read_tuple(0)
    heap.append(10**6, tup.label, tup.features)
    check(n_ops + 1)
