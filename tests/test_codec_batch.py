"""Tests for the columnar bulk decode path (``decode_page`` / ``TupleBatch``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.sparse import SparseMatrix, SparseRow
from repro.storage import (
    BlockFileReader,
    BufferPool,
    HeapFile,
    TupleBatch,
    TupleSchema,
    decode_page,
    decode_tuple,
    encode_tuple,
    write_block_file,
)
from repro.storage.codec import encode_rows, encoded_row_bounds


def _encode_run(records, *, start_id=0):
    return b"".join(
        encode_tuple(start_id + i, label, features)
        for i, (label, features) in enumerate(records)
    )


def _assert_batch_matches_scalar(buffer, n, schema):
    """decode_page output must be element-wise identical to decode_tuple."""
    batch = decode_page(buffer, n, schema)
    assert len(batch) == n
    offset = 0
    for i in range(n):
        expected, offset = decode_tuple(buffer, offset, schema)
        assert batch.ids[i] == expected.tuple_id
        assert batch.labels[i] == expected.label
        row = batch.row(i)
        if schema.sparse:
            np.testing.assert_array_equal(row.indices, expected.features.indices)
            np.testing.assert_array_equal(row.values, expected.features.values)
            assert row.n_features == schema.n_features
        else:
            np.testing.assert_array_equal(row, expected.features)


class TestDecodePageDense:
    def test_bulk_matches_scalar(self):
        rng = np.random.default_rng(0)
        schema = TupleSchema(6)
        buf = _encode_run([(float(i % 3 - 1), rng.standard_normal(6)) for i in range(20)])
        _assert_batch_matches_scalar(buf, 20, schema)

    def test_single_tuple_page(self):
        schema = TupleSchema(4)
        buf = _encode_run([(1.0, np.array([1.0, 0.0, -2.0, 3.5]))])
        batch = decode_page(buf, 1, schema)
        assert len(batch) == 1 and not batch.is_sparse
        np.testing.assert_array_equal(batch.row(0), [1.0, 0.0, -2.0, 3.5])

    def test_empty_page(self):
        batch = decode_page(b"", 0, TupleSchema(3))
        assert len(batch) == 0
        assert batch.features_matrix().shape == (0, 3)

    def test_offset(self):
        schema = TupleSchema(2)
        junk = b"\xff" * 7
        buf = junk + _encode_run([(1.0, np.array([2.0, 3.0]))])
        batch = decode_page(buf, 1, schema, offset=len(junk))
        np.testing.assert_array_equal(batch.row(0), [2.0, 3.0])

    def test_truncated_buffer_raises(self):
        schema = TupleSchema(2)
        buf = _encode_run([(1.0, np.array([2.0, 3.0]))])
        with pytest.raises(Exception):
            decode_page(buf[:-4], 1, schema)


class TestDecodePageSparse:
    def test_bulk_matches_scalar(self):
        rng = np.random.default_rng(1)
        schema = TupleSchema(50, sparse=True)
        records = []
        for i in range(15):
            nnz = int(rng.integers(0, 8))
            idx = np.sort(rng.choice(50, size=nnz, replace=False))
            records.append((float(2 * (i % 2) - 1), SparseRow(idx, rng.standard_normal(nnz), 50)))
        buf = _encode_run(records)
        _assert_batch_matches_scalar(buf, 15, schema)

    def test_zero_nnz_rows_roundtrip(self):
        """All-empty sparse rows survive the bulk path (zero-length gathers)."""
        schema = TupleSchema(10, sparse=True)
        empty = SparseRow(np.array([], dtype=np.int64), np.array([]), 10)
        buf = _encode_run([(1.0, empty), (-1.0, empty), (1.0, empty)])
        batch = decode_page(buf, 3, schema)
        assert batch.is_sparse
        np.testing.assert_array_equal(batch.indptr, [0, 0, 0, 0])
        assert batch.indices.size == 0 and batch.values.size == 0
        for i in range(3):
            assert batch.row(i).nnz == 0

    def test_single_tuple_page(self):
        schema = TupleSchema(100, sparse=True)
        row = SparseRow([3, 40, 99], [0.5, -1.0, 2.0], 100)
        batch = decode_page(_encode_run([(1.0, row)]), 1, schema)
        assert batch.is_sparse and len(batch) == 1
        out = batch.row(0)
        np.testing.assert_array_equal(out.indices, row.indices)
        np.testing.assert_array_equal(out.values, row.values)

    def test_dense_tuple_in_sparse_schema_falls_back(self):
        """A dense record in a sparse run is irregular: scalar fallback kicks in."""
        schema = TupleSchema(4, sparse=True)
        buf = _encode_run(
            [(1.0, np.array([1.0, 0.0, 2.0, 0.0])), (-1.0, SparseRow([1], [3.0], 4))]
        )
        batch = decode_page(buf, 2, schema)
        assert batch.is_sparse
        row = batch.row(0)
        np.testing.assert_array_equal(row.indices, [0, 2])
        np.testing.assert_array_equal(row.values, [1.0, 2.0])


class TestDecodePageProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    def test_dense_bulk_equals_scalar(self, n, d, seed):
        rng = np.random.default_rng(seed)
        schema = TupleSchema(d)
        buf = _encode_run(
            [(float(rng.integers(-1, 2)), rng.standard_normal(d)) for _ in range(n)]
        )
        _assert_batch_matches_scalar(buf, n, schema)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 30),
        seed=st.integers(0, 100),
    )
    def test_sparse_bulk_equals_scalar(self, n, d, seed):
        rng = np.random.default_rng(seed)
        schema = TupleSchema(d, sparse=True)
        records = []
        for _ in range(n):
            nnz = int(rng.integers(0, d + 1))
            idx = np.sort(rng.choice(d, size=nnz, replace=False))
            records.append((float(rng.integers(-1, 2)), SparseRow(idx, rng.standard_normal(nnz), d)))
        buf = _encode_run(records)
        _assert_batch_matches_scalar(buf, n, schema)


class TestTupleBatch:
    def test_concat_dense(self):
        rng = np.random.default_rng(2)
        schema = TupleSchema(3)
        a = decode_page(_encode_run([(1.0, rng.standard_normal(3))]), 1, schema)
        b = decode_page(
            _encode_run([(-1.0, rng.standard_normal(3))] * 2, start_id=1), 2, schema
        )
        merged = TupleBatch.concat([a, b])
        assert len(merged) == 3
        np.testing.assert_array_equal(merged.ids, [0, 1, 2])
        np.testing.assert_array_equal(merged.dense[0], a.dense[0])

    def test_concat_sparse(self):
        schema = TupleSchema(9, sparse=True)
        a = decode_page(_encode_run([(1.0, SparseRow([1, 4], [1.0, 2.0], 9))]), 1, schema)
        b = decode_page(
            _encode_run([(-1.0, SparseRow([8], [3.0], 9))], start_id=1), 1, schema
        )
        merged = TupleBatch.concat([a, b])
        np.testing.assert_array_equal(merged.indptr, [0, 2, 3])
        np.testing.assert_array_equal(merged.indices, [1, 4, 8])
        np.testing.assert_array_equal(merged.values, [1.0, 2.0, 3.0])

    def test_concat_empty_list_raises(self):
        with pytest.raises(ValueError):
            TupleBatch.concat([])

    def test_exactly_one_layout_enforced(self):
        ids = np.array([0], dtype=np.int64)
        labels = np.array([1.0])
        with pytest.raises(ValueError):
            TupleBatch(ids, labels, 3)
        with pytest.raises(ValueError):
            TupleBatch(
                ids,
                labels,
                3,
                dense=np.zeros((1, 3)),
                indptr=np.array([0, 0], dtype=np.int64),
                indices=np.array([], dtype=np.int64),
                values=np.array([]),
            )

    def test_features_matrix_sparse(self):
        schema = TupleSchema(5, sparse=True)
        buf = _encode_run([(1.0, SparseRow([0, 4], [1.0, -1.0], 5))])
        mat = decode_page(buf, 1, schema).features_matrix()
        assert isinstance(mat, SparseMatrix)
        np.testing.assert_array_equal(mat.to_dense(), [[1.0, 0.0, 0.0, 0.0, -1.0]])

    def test_to_tuples_roundtrip(self):
        rng = np.random.default_rng(3)
        schema = TupleSchema(4)
        buf = _encode_run([(float(i), rng.standard_normal(4)) for i in range(5)])
        records = decode_page(buf, 5, schema).to_tuples()
        assert [r.tuple_id for r in records] == list(range(5))
        again = TupleBatch.from_tuples(records, schema)
        np.testing.assert_array_equal(again.dense, decode_page(buf, 5, schema).dense)


class TestStorageIntegration:
    def test_read_block_batch_matches_read_block(self, tmp_path, dense_binary):
        path = tmp_path / "batch.blocks"
        write_block_file(dense_binary, path, tuples_per_block=50)
        with BlockFileReader(path) as reader:
            for block_id in range(reader.n_blocks):
                batch = reader.read_block_batch(block_id)
                records = reader.read_block(block_id)
                assert len(batch) == len(records)
                for i, rec in enumerate(records):
                    assert batch.ids[i] == rec.tuple_id
                    np.testing.assert_array_equal(batch.row(i), rec.features)

    def test_bufferpool_batch_cache(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        pool = BufferPool(heap, capacity_pages=4)
        batch, hit = pool.get_batch_traced(0)
        assert hit is False and len(batch) > 0
        again, hit = pool.get_batch_traced(0)
        assert hit is True
        assert again is batch  # same cached entry, one decode
        # Tuple and batch consumers share the LRU entry.
        tuples, hit = pool.get_page_traced(0)
        assert hit is True
        assert len(tuples) == len(batch)


# ----------------------------------------------------------------------
# The write side: encode_rows is the per-tuple encoder, byte for byte
# ----------------------------------------------------------------------


def _per_tuple_bytes(batch: TupleBatch) -> bytes:
    return b"".join(
        encode_tuple(int(batch.ids[i]), float(batch.labels[i]), batch.row(i))
        for i in range(len(batch))
    )


def _sparse_batch(counts, n_features=40, seed=0, start_id=7) -> TupleBatch:
    rng = np.random.default_rng(seed)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(n_features, c, replace=False)) for c in counts]
        + [np.empty(0, dtype=np.int64)]
    ).astype(np.int64)
    return TupleBatch(
        ids=np.arange(start_id, start_id + len(counts), dtype=np.int64),
        labels=rng.choice([-1.0, 1.0], len(counts)),
        n_features=n_features,
        indptr=indptr,
        indices=indices,
        values=rng.standard_normal(int(indptr[-1])),
    )


class TestEncodeRows:
    def test_dense_run(self):
        rng = np.random.default_rng(0)
        batch = TupleBatch(
            ids=np.arange(100, 130, dtype=np.int64),
            labels=rng.standard_normal(30),
            n_features=6,
            dense=rng.standard_normal((30, 6)),
        )
        encoded = encode_rows(batch)
        assert encoded == _per_tuple_bytes(batch)
        assert encoded_row_bounds(batch).tolist() == [i * (20 + 48) for i in range(31)]
        decoded = decode_page(encoded, 30, TupleSchema(6))
        np.testing.assert_array_equal(decoded.dense, batch.dense)

    @pytest.mark.parametrize(
        "counts",
        [
            [3, 5, 1, 7],  # mixed nnz
            [0, 4, 0, 0, 2, 0],  # empty rows, first and last included
            [0, 0, 0],  # nothing but headers
            [9],  # one row
            [4] * 12,  # uniform
        ],
    )
    def test_sparse_run(self, counts):
        batch = _sparse_batch(counts)
        encoded = encode_rows(batch)
        assert encoded == _per_tuple_bytes(batch)
        bounds = encoded_row_bounds(batch)
        assert np.diff(bounds).tolist() == [20 + 12 * c for c in counts]
        assert bounds[-1] == len(encoded)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_row_run(self, sparse):
        schema = TupleSchema(5, sparse=sparse)
        batch = TupleBatch.from_tuples([], schema)
        assert encode_rows(batch) == b""
        assert encoded_row_bounds(batch).tolist() == [0]

    def test_one_dense_row(self):
        batch = TupleBatch(
            ids=np.array([2**40]), labels=np.array([-0.0]), n_features=3,
            dense=np.array([[1.5, np.nan, -np.inf]]),
        )
        assert encode_rows(batch) == _per_tuple_bytes(batch)

    def test_non_contiguous_and_non_float64_inputs(self):
        rng = np.random.default_rng(4)
        wide = rng.standard_normal((40, 12))
        dense = TupleBatch(
            ids=np.arange(80, dtype=np.int32)[::4],  # strided, narrower ints
            labels=rng.standard_normal(40).astype(np.float32)[::2],
            n_features=6,
            dense=np.asfortranarray(wide)[::2, ::2],  # strided both ways
        )
        assert encode_rows(dense) == _per_tuple_bytes(dense)
        dense32 = TupleBatch(
            ids=np.arange(20, dtype=np.int64), labels=np.ones(20), n_features=6,
            dense=wide[:20, :6].astype(np.float32),
        )
        assert encode_rows(dense32) == _per_tuple_bytes(dense32)

        base = _sparse_batch([2, 0, 5, 3])
        strided = TupleBatch(
            ids=base.ids, labels=base.labels, n_features=base.n_features, indptr=base.indptr,
            indices=np.repeat(base.indices.astype(np.int32), 2)[::2],
            values=np.repeat(base.values.astype(np.float32), 2)[::2],
        )
        assert not strided.values.flags["C_CONTIGUOUS"]
        assert encode_rows(strided) == _per_tuple_bytes(strided)

    def test_sliced_batch_encodes_its_rows_only(self):
        batch = _sparse_batch([3, 0, 6, 2, 4]).slice(1, 4)
        assert encode_rows(batch) == _per_tuple_bytes(batch)

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 9), min_size=0, max_size=25),
        n_dense=st.integers(0, 25),
        d=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_property_matches_per_tuple_encoder(self, counts, n_dense, d, seed):
        sparse = _sparse_batch(counts, n_features=12, seed=seed)
        assert encode_rows(sparse) == _per_tuple_bytes(sparse)
        rng = np.random.default_rng(seed)
        dense = TupleBatch(
            ids=rng.integers(-(2**40), 2**40, n_dense), labels=rng.standard_normal(n_dense),
            n_features=d, dense=rng.standard_normal((n_dense, d)),
        )
        assert encode_rows(dense) == _per_tuple_bytes(dense)
