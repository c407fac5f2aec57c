"""Tests for the columnar block format: codec round-trips, lazy views,
chunk-pruned reads, chunk-level fault injection, byte-budget buffer pooling,
SQL column projection, and the in-place row -> columnar migration."""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Batch, CorgiPileDataset
from repro.core.seeding import FAULT_UNIT_CODES, fault_unit_rng
from repro.data import make_binary_sparse
from repro.db import MiniDB, ParseError, SelectQuery, parse_query
from repro.faults import FaultPlan, FaultSpec, FaultyBlockFileReader, chunk_fault_target
from repro.ml import LogisticRegression, train_streaming, training_columns
from repro.storage import (
    BlockFileReader,
    BufferPool,
    ChecksumError,
    HeapFile,
    LazyTupleBatch,
    RetryPolicy,
    TupleBatch,
    TupleSchema,
    decode_block_columnar,
    encode_block_columnar,
    encode_tuple,
    migrate_file,
    write_block_file,
)
from repro.storage.columnar import (
    COL_IDS,
    COL_VALUES,
    ENC_PACKED,
    read_columnar_header,
)
from repro.storage.filestore import save_heap
from repro.storage.retry import ReadExhaustedError


def _random_batch(seed: int, n: int, d: int, sparse: bool) -> TupleBatch:
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10 * n + 10, size=n, replace=False)).astype(np.int64)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if not sparse:
        return TupleBatch(ids, labels, d, dense=rng.standard_normal((n, d)))
    nnz = rng.integers(0, min(d, 6), size=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(d, size=k, replace=False)) for k in nnz]
    ).astype(np.int64) if indptr[-1] else np.zeros(0, dtype=np.int64)
    values = rng.standard_normal(int(indptr[-1]))
    return TupleBatch(ids, labels, d, indptr=indptr, indices=indices, values=values)


def _assert_batches_equal(a: TupleBatch, b) -> None:
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.labels, b.labels)
    if a.is_sparse:
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
    else:
        np.testing.assert_array_equal(a.dense, b.dense)


class TestRoundTrip:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        d=st.integers(1, 64),
        sparse=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, seed, n, d, sparse):
        batch = _random_batch(seed, n, d, sparse)
        schema = TupleSchema(d, sparse=sparse)
        payload = encode_block_columnar(batch, schema)
        decoded = decode_block_columnar(payload, schema, verify_chunks=True)
        assert len(decoded) == n and decoded.is_sparse == sparse
        _assert_batches_equal(batch, decoded)

    def test_roundtrip_matches_scalar_rows(self):
        batch = _random_batch(3, 25, 30, sparse=True)
        decoded = decode_block_columnar(
            encode_block_columnar(batch), TupleSchema(30, sparse=True)
        )
        for i, t in enumerate(decoded.to_tuples()):
            assert t.tuple_id == batch.ids[i] and t.label == batch.labels[i]
            row = batch.row(i)
            np.testing.assert_array_equal(t.features.indices, row.indices)
            np.testing.assert_array_equal(t.features.values, row.values)

    def test_monotone_ids_are_delta_packed(self):
        batch = _random_batch(0, 64, 8, sparse=False)
        refs = read_columnar_header(encode_block_columnar(batch))[3]
        ids_ref = next(r for r in refs if r.col == COL_IDS)
        assert ids_ref.enc == ENC_PACKED and ids_ref.delta == 1
        assert ids_ref.length < 64 * 8  # strictly smaller than raw int64

    @pytest.mark.parametrize("sparse, bound", [(False, 0.97), (True, 0.80)])
    def test_columnar_payload_is_smaller_than_the_row_payload(self, sparse, bound):
        """A block of 2048 sequential-id tuples (dense d=32; sparse d=4096 with
        10 nnz): delta-packed ids and one header per block instead of one per
        tuple make the columnar bytes ~0.96x / ~0.79x the row bytes."""
        n, rng = 2048, np.random.default_rng(0)
        ids = np.arange(n, dtype=np.int64)
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if sparse:
            d, nnz = 4096, 10
            indptr = np.arange(0, nnz * (n + 1), nnz, dtype=np.int64)
            indices = np.concatenate(
                [np.sort(rng.choice(d, size=nnz, replace=False)) for _ in range(n)]
            ).astype(np.int64)
            batch = TupleBatch(
                ids, labels, d, indptr=indptr, indices=indices,
                values=rng.standard_normal(n * nnz),
            )
        else:
            d = 32
            batch = TupleBatch(ids, labels, d, dense=rng.standard_normal((n, d)))
        row_bytes = sum(
            len(encode_tuple(t.tuple_id, t.label, t.features)) for t in batch.to_tuples()
        )
        col_bytes = len(encode_block_columnar(batch, TupleSchema(d, sparse=sparse)))
        assert col_bytes < bound * row_bytes

    def test_bad_magic_rejected(self):
        payload = encode_block_columnar(_random_batch(1, 4, 3, False))
        with pytest.raises(ValueError):
            decode_block_columnar(b"XXXX" + payload[4:], TupleSchema(3))

    def test_corrupted_chunk_fails_crc(self):
        batch = _random_batch(2, 16, 12, sparse=False)
        payload = bytearray(encode_block_columnar(batch))
        refs = read_columnar_header(bytes(payload))[3]
        dense_ref = max(refs, key=lambda r: r.offset)
        payload[dense_ref.offset + 1] ^= 0xFF
        lazy = decode_block_columnar(bytes(payload), TupleSchema(12), verify_chunks=True)
        with pytest.raises(ChecksumError):
            lazy.dense  # noqa: B018 - materialisation triggers the CRC check


class TestLazyViews:
    def test_columns_materialize_on_touch(self):
        batch = _random_batch(5, 20, 40, sparse=True)
        lazy = decode_block_columnar(encode_block_columnar(batch))
        assert lazy.materialized_columns == frozenset()
        assert lazy.decoded_nbytes == 0
        lazy.labels  # noqa: B018
        assert lazy.materialized_columns == frozenset({"labels"})
        assert lazy.decoded_nbytes == 20 * 8
        lazy.materialize()
        assert "values" in lazy.materialized_columns

    def test_raw_float_chunks_are_zero_copy_views(self):
        batch = _random_batch(6, 10, 4, sparse=False)
        lazy = decode_block_columnar(encode_block_columnar(batch))
        assert not lazy.labels.flags.owndata  # np.frombuffer view, no copy

    def test_pruned_decode_drops_columns(self):
        batch = _random_batch(7, 8, 5, sparse=False)
        lazy = decode_block_columnar(
            encode_block_columnar(batch), columns=("labels",)
        )
        assert lazy.available_columns == frozenset({"labels"})
        np.testing.assert_array_equal(lazy.labels, batch.labels)
        with pytest.raises(KeyError):
            lazy.dense  # noqa: B018


@pytest.fixture()
def columnar_file(tmp_path, sparse_binary):
    path = tmp_path / "sparse.columnar.blocks"
    write_block_file(sparse_binary, path, tuples_per_block=40, layout="columnar")
    return path


class TestColumnarBlockFile:
    def test_reader_reports_layout_and_chunks(self, columnar_file):
        with BlockFileReader(columnar_file) as reader:
            assert reader.layout == "columnar"
            assert all(e.chunks for e in reader.entries)
            batch = reader.read_block_batch(0)
            assert isinstance(batch, LazyTupleBatch)

    def test_content_matches_row_layout(self, tmp_path, columnar_file, sparse_binary):
        row_path = tmp_path / "sparse.row.blocks"
        write_block_file(sparse_binary, row_path, tuples_per_block=40)
        with BlockFileReader(row_path) as row, BlockFileReader(columnar_file) as col:
            assert row.n_blocks == col.n_blocks
            for b in range(row.n_blocks):
                _assert_batches_equal(row.read_block_batch(b), col.read_block_batch(b))

    def test_pruned_read_touches_only_requested_chunks(self, columnar_file):
        with BlockFileReader(columnar_file) as reader:
            batch = reader.read_block_batch(0, columns=("labels", "indptr"))
            assert batch.available_columns == frozenset({"labels", "indptr"})
            with pytest.raises(KeyError):
                batch.values  # noqa: B018

    def test_visit_order_identical_to_row_layout(self, tmp_path, sparse_binary, columnar_file):
        row_path = tmp_path / "order.row.blocks"
        write_block_file(sparse_binary, row_path, tuples_per_block=40)
        with CorgiPileDataset(row_path, buffer_blocks=2, seed=7) as row_view:
            row_view.set_epoch(1)
            want = [t.tuple_id for t in row_view]
        with CorgiPileDataset(columnar_file, buffer_blocks=2, seed=7) as col_view:
            col_view.set_epoch(1)
            got = []
            for fill in col_view.fills(columns=training_columns(True, with_ids=True)):
                got.extend(fill.ids.tolist())
        assert got == want


class TestChunkFaults:
    def test_chunk_unit_registered(self):
        assert FAULT_UNIT_CODES["chunk"] == 3
        a = fault_unit_rng(0, "chunk", 5).random()
        b = fault_unit_rng(0, "block", 5).random()
        assert a != b  # chunk draws are an independent stream

    def test_torn_chunk_absorbed_by_retry(self, columnar_file):
        target = chunk_fault_target(0, COL_VALUES)
        plan = FaultPlan(specs=[FaultSpec("torn", unit="chunk", target=target)])
        with BlockFileReader(columnar_file) as clean:
            want = clean.read_block_batch(0).materialize()
        reader = FaultyBlockFileReader(columnar_file, plan)
        try:
            batch = reader.read_block_batch(0, columns=training_columns(True))
            np.testing.assert_array_equal(batch.values, want.values)
            np.testing.assert_array_equal(batch.labels, want.labels)
        finally:
            reader.close()

    def test_torn_chunk_without_retry_raises(self, columnar_file):
        target = chunk_fault_target(0, COL_VALUES)
        plan = FaultPlan(specs=[FaultSpec("torn", unit="chunk", target=target, times=5)])
        reader = FaultyBlockFileReader(
            columnar_file, plan, retry=RetryPolicy(max_attempts=2, backoff_s=0.0)
        )
        try:
            with pytest.raises(ReadExhaustedError):
                reader.read_block_batch(0, columns=("values",))
        finally:
            reader.close()

    def test_fault_on_untouched_chunk_is_invisible(self, columnar_file):
        # The values chunk is poisoned, but a labels-only projection never
        # reads it — pruned reads must not trip faults on pruned columns.
        target = chunk_fault_target(0, COL_VALUES)
        plan = FaultPlan(specs=[FaultSpec("torn", unit="chunk", target=target, times=99)])
        reader = FaultyBlockFileReader(
            columnar_file, plan, retry=RetryPolicy(max_attempts=1)
        )
        try:
            batch = reader.read_block_batch(0, columns=("labels",))
            assert batch.labels.size > 0
        finally:
            reader.close()

    def test_spec_validates_chunk_unit(self):
        FaultSpec("transient", unit="chunk", target=1)
        with pytest.raises(ValueError):
            FaultSpec("transient", unit="bogus", target=1)


class TestBufferPoolDecodedBytes:
    def test_budget_charges_decoded_not_encoded_bytes(self):
        # High-dimensional sparse table: the encoded columnar page is small,
        # but a fully materialised batch pins much more decoded memory.  The
        # pool must charge the latter.
        ds = make_binary_sparse(240, 5000, nnz_per_row=20, separation=1.0, seed=5)
        heap = HeapFile.from_dataset(ds, page_bytes=2048, layout="columnar")
        pool = BufferPool(heap, capacity_pages=1024, capacity_bytes=16 * 1024)
        n_pages = heap.n_pages
        assert n_pages >= 4
        for page_id in range(n_pages):
            # Materialising grows the cached entry's decoded footprint; the
            # next pool access re-enforces the byte budget and evicts.
            pool.get_batch(page_id).materialize()
        assert pool.cached_pages < n_pages  # the byte budget forced evictions
        assert pool.evictions > 0
        # Whatever survives fits the budget (the MRU entry is always kept).
        assert pool.decoded_bytes <= 16 * 1024 or pool.cached_pages == 1

    def test_lazy_entries_charge_only_touched_columns(self):
        ds = make_binary_sparse(120, 2000, nnz_per_row=10, separation=1.0, seed=6)
        heap = HeapFile.from_dataset(ds, page_bytes=2048, layout="columnar")
        pool = BufferPool(heap, capacity_pages=64)
        batch = pool.get_batch(0)
        assert pool.decoded_bytes == 0
        batch.labels  # noqa: B018
        assert pool.decoded_bytes == batch.labels.nbytes


class TestSelectProjection:
    def test_parse_column_list(self):
        query = parse_query("SELECT label, id FROM t LIMIT 5")
        assert query == SelectQuery(table="t", limit=5, columns=("label", "rid"))

    def test_parse_feature_column(self):
        assert parse_query("SELECT f3 FROM t").columns == ("f3",)

    def test_parse_star_keeps_default(self):
        assert parse_query("SELECT * FROM t LIMIT 2").columns is None

    def test_unknown_column_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT bogus FROM t")

    def test_projection_prunes_columnar_table(self, sparse_binary):
        db = MiniDB(page_bytes=2048)
        db.create_table("t", sparse_binary, layout="columnar")
        response = db.execute("SELECT label, rid FROM t LIMIT 4")
        assert response["columns"] == ["label", "rid"]
        assert all(set(r) == {"label", "rid"} for r in response["rows"])
        # The lazy batch in the pool never decoded the feature chunks.
        batch = db.catalog.get("t").pool.get_batch(0)
        assert "values" not in batch.materialized_columns

    def test_feature_column_values(self, dense_binary):
        db = MiniDB(page_bytes=4096)
        db.create_table("t", dense_binary, layout="columnar")
        rows = db.execute("SELECT f3 FROM t LIMIT 2")["rows"]
        assert rows[0]["f3"] == pytest.approx(float(dense_binary.X[0, 3]))
        with pytest.raises(Exception):
            db.execute("SELECT f99 FROM t LIMIT 1")


class TestMigrate:
    def _block_file(self, tmp_path, dataset, name="m.blocks"):
        path = tmp_path / name
        write_block_file(dataset, path, tuples_per_block=40)
        return path

    def test_block_file_roundtrip(self, tmp_path, sparse_binary):
        path = self._block_file(tmp_path, sparse_binary)
        report = migrate_file(path)
        assert report.kind == "block" and not report.skipped
        assert report.verified_blocks == report.n_blocks
        assert report.bytes_after < report.bytes_before
        with BlockFileReader(path) as reader:
            assert reader.layout == "columnar"
            ids = sorted(
                t.tuple_id for b in range(reader.n_blocks) for t in reader.read_block(b)
            )
        assert ids == list(range(sparse_binary.n_tuples))

    def test_migrate_is_idempotent(self, tmp_path, dense_binary):
        path = self._block_file(tmp_path, dense_binary)
        migrate_file(path)
        report = migrate_file(path)
        assert report.skipped

    def test_interrupted_migration_resumes(self, tmp_path, sparse_binary):
        path = self._block_file(tmp_path, sparse_binary)
        with pytest.raises(KeyboardInterrupt):
            migrate_file(path, _stop_after_blocks=2)
        assert path.with_name(path.name + ".migrate.state.json").exists()
        report = migrate_file(path)
        assert report.resumed_at_block == 2
        assert not path.with_name(path.name + ".migrate.state.json").exists()
        with BlockFileReader(path) as reader:
            assert reader.layout == "columnar"
            total = sum(e.n_tuples for e in reader.entries)
        assert total == sparse_binary.n_tuples

    def test_interrupted_run_leaves_source_readable(self, tmp_path, dense_binary):
        path = self._block_file(tmp_path, dense_binary)
        with pytest.raises(KeyboardInterrupt):
            migrate_file(path, _stop_after_blocks=1)
        with BlockFileReader(path) as reader:  # source untouched until finalize
            assert reader.layout == "row"
            assert reader.read_block(0)

    def test_heap_file_migration(self, tmp_path, sparse_binary):
        # Heap sources migrate into a columnar *block file* (the training
        # format), preserving block_pages grouping as the block boundaries.
        heap = HeapFile.from_dataset(sparse_binary, page_bytes=2048)
        path = tmp_path / "table.heap"
        save_heap(heap, path)
        report = migrate_file(path)
        assert report.kind == "heap" and not report.skipped
        with BlockFileReader(path) as reader:
            assert reader.layout == "columnar"
            got = sorted(
                t.tuple_id for b in range(reader.n_blocks) for t in reader.read_block(b)
            )
        assert got == list(range(sparse_binary.n_tuples))

    def test_training_bit_identical_after_migration(self, tmp_path, sparse_binary):
        row_path = self._block_file(tmp_path, sparse_binary, "row.blocks")
        col_path = tmp_path / "col.blocks"
        shutil.copy(row_path, col_path)
        shutil.copy(
            str(row_path) + ".index.json", str(col_path) + ".index.json"
        )
        migrate_file(col_path)
        weights = []
        for path in (row_path, col_path):
            model = LogisticRegression(sparse_binary.n_features)
            with CorgiPileDataset(path, buffer_blocks=2, seed=3) as view:

                def fills(epoch, view=view):
                    view.set_epoch(epoch)
                    return (Batch(f.features_matrix(), f.labels, f.ids) for f in view.fills())

                train_streaming(model, fills, epochs=2, per_tuple=True, fused=True)
            weights.append({k: v.copy() for k, v in model.params.items()})
        for key in weights[0]:
            np.testing.assert_array_equal(weights[0][key], weights[1][key])


class TestColumnarHeap:
    def test_scan_matches_row_layout(self, sparse_binary):
        row = HeapFile.from_dataset(sparse_binary, page_bytes=2048)
        col = HeapFile.from_dataset(sparse_binary, page_bytes=2048, layout="columnar")
        want = [(t.tuple_id, t.label) for t in row.scan()]
        got = [(t.tuple_id, t.label) for t in col.scan()]
        assert got == want

    def test_compress_plus_columnar_rejected(self):
        with pytest.raises(ValueError):
            HeapFile(TupleSchema(4), compress=True, layout="columnar")
