"""Tests for the threaded TupleShuffle operator and heap persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_binary_dense, make_binary_sparse
from repro.db import Catalog
from repro.db.engine import ENGINE_PROFILE
from repro.db.operators import BlockShuffleOperator, SeqScanOperator, TupleShuffleOperator
from repro.db.threaded import ThreadedTupleShuffleOperator
from repro.db.timing import RuntimeContext
from repro.storage import HeapFile
from repro.storage.filestore import load_heap, save_heap

from .conftest import pass_ids


@pytest.fixture()
def table(dense_binary):
    return Catalog(page_bytes=512).create_table("t", dense_binary)


def _ctx():
    from repro.storage import SSD

    return RuntimeContext(device=SSD, compute=ENGINE_PROFILE)


class TestThreadedTupleShuffle:
    def test_covers_all_tuples(self, table):
        ctx = _ctx()
        op = ThreadedTupleShuffleOperator(SeqScanOperator(table, ctx), 100, seed=1)
        op.open()
        ids = pass_ids(op)
        op.close()
        assert sorted(ids) == list(range(table.n_tuples))

    def test_matches_synchronous_operator_order(self, table):
        """Drop-in equivalence: same child order + seed => same output order."""
        ctx1, ctx2 = _ctx(), _ctx()
        threaded = ThreadedTupleShuffleOperator(SeqScanOperator(table, ctx1), 100, seed=5)
        sync = TupleShuffleOperator(SeqScanOperator(table, ctx2), ctx2, 100, seed=5)
        threaded.open()
        sync.open()
        threaded_ids = pass_ids(threaded)
        sync_ids = pass_ids(sync)
        threaded.close()
        assert threaded_ids == sync_ids

    def test_rescan_matches_synchronous(self, table):
        ctx1, ctx2 = _ctx(), _ctx()
        threaded = ThreadedTupleShuffleOperator(
            BlockShuffleOperator(table, ctx1, 2048, seed=2), 80, seed=2
        )
        sync = TupleShuffleOperator(
            BlockShuffleOperator(table, ctx2, 2048, seed=2), ctx2, 80, seed=2
        )
        threaded.open()
        sync.open()
        for _ in range(3):
            assert pass_ids(threaded) == pass_ids(sync)
            threaded.rescan()
            sync.rescan()
        threaded.close()

    def test_early_close_terminates_producer(self, table):
        ctx = _ctx()
        op = ThreadedTupleShuffleOperator(SeqScanOperator(table, ctx), 50, seed=0)
        op.open()
        op.next_batch()
        op.close()  # must not hang
        assert op._producer is None

    def test_child_exception_propagates(self, table):
        class Broken(SeqScanOperator):
            def next_batch(self):
                raise RuntimeError("disk on fire")

        ctx = _ctx()
        op = ThreadedTupleShuffleOperator(Broken(table, ctx), 10, seed=0)
        op.open()
        with pytest.raises(RuntimeError, match="disk on fire"):
            pass_ids(op)
        op.close()

    def test_invalid_buffer(self, table):
        with pytest.raises(ValueError):
            ThreadedTupleShuffleOperator(SeqScanOperator(table, _ctx()), 0)


class TestHeapPersistence:
    def test_dense_roundtrip(self, dense_binary, tmp_path):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=512)
        path = save_heap(heap, tmp_path / "t.heap")
        loaded = load_heap(path)
        assert loaded.n_tuples == heap.n_tuples
        assert loaded.n_pages == heap.n_pages
        assert loaded.page_bytes == heap.page_bytes
        for i in (0, 123, heap.n_tuples - 1):
            original = heap.read_tuple(i)
            restored = loaded.read_tuple(i)
            assert restored.tuple_id == original.tuple_id
            np.testing.assert_allclose(restored.features, original.features)

    def test_sparse_roundtrip(self, sparse_binary, tmp_path):
        heap = HeapFile.from_dataset(sparse_binary, page_bytes=512)
        loaded = load_heap(save_heap(heap, tmp_path / "s.heap"))
        record = loaded.read_tuple(7)
        assert record.is_sparse
        np.testing.assert_allclose(
            record.features.to_dense(), sparse_binary.X.to_dense()[7]
        )

    def test_compressed_roundtrip(self, dense_binary, tmp_path):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=512, compress=True)
        loaded = load_heap(save_heap(heap, tmp_path / "c.heap"))
        assert loaded.compress
        np.testing.assert_allclose(loaded.read_tuple(3).features, dense_binary.X[3])

    def test_block_layout_preserved(self, dense_binary, tmp_path):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=512)
        loaded = load_heap(save_heap(heap, tmp_path / "t.heap"))
        assert loaded.n_blocks(2048) == heap.n_blocks(2048)
        original = [int(i) for p in heap.block_pages(1, 2048) for i in heap.read_page_batch(p).ids]
        restored = [int(i) for p in loaded.block_pages(1, 2048) for i in loaded.read_page_batch(p).ids]
        assert original == restored

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.heap"
        path.write_bytes(b"NOTAHEAP" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_heap(path)

    def test_truncated_file_rejected(self, dense_binary, tmp_path):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=512)
        path = save_heap(heap, tmp_path / "t.heap")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_heap(path)

    def test_file_padded_to_page_capacity(self, tmp_path):
        ds = make_binary_dense(50, 4, seed=0)
        heap = HeapFile.from_dataset(ds, page_bytes=1024)
        path = save_heap(heap, tmp_path / "p.heap")
        size = path.stat().st_size
        # header + n_pages * capacity
        assert size >= heap.n_pages * 1024
