"""Tests for pages, heap files, blocks, and TOAST-like compression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_binary_dense, make_binary_sparse
from repro.storage import DEFAULT_PAGE_BYTES, HeapFile, Page


class TestPage:
    def test_append_and_capacity(self):
        page = Page(0, capacity=100)
        page.append(b"x" * 60)
        assert page.fits(40)
        assert not page.fits(41)
        page.append(b"y" * 40)
        assert page.free_bytes == 0

    def test_overflow_rejected(self):
        page = Page(0, capacity=10)
        page.append(b"12345")
        with pytest.raises(ValueError):
            page.append(b"123456")

    def test_oversized_tuple_rejected(self):
        page = Page(0, capacity=10)
        with pytest.raises(ValueError):
            page.append(b"x" * 11)

    def test_raw_concatenates(self):
        page = Page(0, capacity=10)
        page.append(b"ab")
        page.append(b"cd")
        assert page.raw() == b"abcd"
        assert page.n_tuples == 2


class TestHeapFile:
    def test_scan_preserves_order(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        ids = [t.tuple_id for t in heap.scan()]
        assert ids == list(range(dense_binary.n_tuples))

    def test_scan_roundtrips_features(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        for i, record in enumerate(heap.scan()):
            if i >= 20:
                break
            np.testing.assert_allclose(record.features, dense_binary.X[i])
            assert record.label == dense_binary.y[i]

    def test_read_tuple_random_access(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        record = heap.read_tuple(123)
        assert record.tuple_id == 123
        np.testing.assert_allclose(record.features, dense_binary.X[123])

    def test_page_sizes(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        assert all(p.used_bytes <= p.capacity for p in heap.pages)
        assert heap.n_pages > 1
        assert heap.total_bytes >= heap.payload_bytes

    def test_sparse_dataset(self, sparse_binary):
        heap = HeapFile.from_dataset(sparse_binary, page_bytes=1024)
        record = heap.read_tuple(10)
        assert record.is_sparse
        np.testing.assert_allclose(
            record.features.to_dense(), sparse_binary.X.to_dense()[10]
        )

    def test_blocks_partition_pages(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        block_bytes = 4096  # 4 pages per block
        seen_pages: list[int] = []
        for b in range(heap.n_blocks(block_bytes)):
            seen_pages.extend(heap.block_pages(b, block_bytes))
        assert seen_pages == list(range(heap.n_pages))

    def test_read_block_tuples(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        tuples = heap.read_block(0, 4096)
        assert tuples[0].tuple_id == 0
        assert len(tuples) > 1

    def test_block_out_of_range(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        with pytest.raises(IndexError):
            heap.read_block(999, 4096)

    def test_block_smaller_than_page_rejected(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        with pytest.raises(ValueError):
            heap.pages_per_block(512)

    def test_default_page_size(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary)
        assert heap.page_bytes == DEFAULT_PAGE_BYTES


class TestCompression:
    def test_compressed_roundtrip(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024, compress=True)
        record = heap.read_tuple(5)
        np.testing.assert_allclose(record.features, dense_binary.X[5])

    def test_compression_shrinks_redundant_data(self):
        # Highly compressible features (constant columns).
        ds = make_binary_dense(200, 50, seed=0)
        ds.X[:, 10:] = 0.0
        plain = HeapFile.from_dataset(ds, page_bytes=2048)
        packed = HeapFile.from_dataset(ds, page_bytes=2048, compress=True)
        assert packed.payload_bytes < plain.payload_bytes

    def test_decode_count_tracks_cpu_work(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        before = heap.decode_count
        heap.read_page(0)
        assert heap.decode_count > before


# ----------------------------------------------------------------------
# The bulk loader is the append loop, page image for page image
# ----------------------------------------------------------------------


def _append_loop(dataset, **kwargs) -> HeapFile:
    """The tuple-at-a-time loader ``from_dataset`` replaced."""
    from repro.storage import TupleSchema

    heap = HeapFile(TupleSchema(dataset.n_features, sparse=dataset.is_sparse), **kwargs)
    labels = np.asarray(dataset.y, dtype=np.float64)
    for i in range(dataset.n_tuples):
        heap.append(i, labels[i], dataset.X.row(i) if dataset.is_sparse else dataset.X[i])
    heap.flush()
    return heap


def _page_images(heap: HeapFile) -> list[tuple]:
    import hashlib

    return [
        (
            page.page_id, page.capacity, tuple(page.slot_lengths()), page.live_bytes,
            page.dead_bytes, page.n_tuples, hashlib.sha256(page.raw()).hexdigest(),
        )
        for page in heap.pages
    ]


_LAYOUTS = {
    "row": dict(),
    "row+compress": dict(compress=True),
    "columnar": dict(layout="columnar"),
}


class TestBulkLoad:
    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("which", ["dense_binary", "sparse_binary"])
    @pytest.mark.parametrize("page_bytes", [512, 2048])
    def test_equals_the_append_loop(self, request, which, layout, page_bytes):
        dataset = request.getfixturevalue(which)
        kwargs = dict(page_bytes=page_bytes, **_LAYOUTS[layout])
        bulk, loop = HeapFile.from_dataset(dataset, **kwargs), _append_loop(dataset, **kwargs)
        assert _page_images(bulk) == _page_images(loop)
        assert bulk._refs == loop._refs
        assert [bulk.rid_of(i) for i in (0, 1, dataset.n_tuples - 1)] == [
            loop.rid_of(i) for i in (0, 1, dataset.n_tuples - 1)
        ]
        assert bulk.n_tuples == loop.n_tuples == dataset.n_tuples
        assert (bulk._n_live, bulk.decode_count) == (loop._n_live, loop.decode_count) == (
            dataset.n_tuples, 0
        )
        assert not bulk._pending and not bulk._refs_dirty
        seen = 0
        for page_id in range(bulk.n_pages):
            got, want = bulk.read_page_batch(page_id), loop.read_page_batch(page_id)
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_array_equal(got.ids, np.arange(seen, seen + len(got)))
            np.testing.assert_array_equal(got.labels, dataset.y[seen : seen + len(got)])
            first = got.row(0)
            expected = dataset.X.row(seen) if dataset.is_sparse else dataset.X[seen]
            if dataset.is_sparse:
                np.testing.assert_array_equal(first.indices, expected.indices)
                np.testing.assert_array_equal(first.values, expected.values)
            else:
                np.testing.assert_array_equal(first, expected)
            seen += len(got)
        assert seen == dataset.n_tuples
        assert bulk.decode_count == loop.decode_count == dataset.n_tuples

    def test_a_tuple_larger_than_a_page_gets_its_own(self):
        wide = make_binary_dense(5, 100, seed=0)  # 820-byte tuples, 256-byte pages
        bulk, loop = HeapFile.from_dataset(wide, page_bytes=256), _append_loop(wide, page_bytes=256)
        assert _page_images(bulk) == _page_images(loop)
        assert [p.capacity for p in bulk.pages] == [820] * 5

    def test_runs_do_not_move_a_page_boundary(self, monkeypatch, sparse_binary):
        """Pages are cut across encode runs exactly as inside one."""
        from repro.storage import heapfile

        whole = _page_images(HeapFile.from_dataset(sparse_binary, page_bytes=1024))
        monkeypatch.setattr(heapfile, "_LOAD_RUN_BYTES", 700)  # ~4 rows a run
        assert _page_images(HeapFile.from_dataset(sparse_binary, page_bytes=1024)) == whole

    def test_empty_dataset(self):
        empty = make_binary_dense(4, 3, seed=0).subset([])
        for kwargs in _LAYOUTS.values():
            heap = HeapFile.from_dataset(empty, **kwargs)
            assert heap.n_tuples == 0 and heap.n_pages == 0

    def test_append_after_a_bulk_load_continues_the_tail_page(self, dense_binary):
        bulk = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        loop = _append_loop(dense_binary, page_bytes=1024)
        for heap in (bulk, loop):
            heap.append(10_000, 1.0, dense_binary.X[0])
        assert _page_images(bulk) == _page_images(loop) and bulk._refs == loop._refs

    def test_page_extend_refuses_dead_slots_and_overflow(self):
        page = Page(0, capacity=10)
        assert page.extend([b"ab", b"cd"]) == 0
        assert page.extend([b"ef"]) == 2 and page.raw() == b"abcdef"
        with pytest.raises(ValueError):
            page.extend([b"12345"])
        page.delete(1)
        with pytest.raises(ValueError):
            page.extend([b"g"])
