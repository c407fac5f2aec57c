"""Tests for the catalog and table statistics."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data import SparseMatrix, make_binary_dense, make_binary_sparse
from repro.db import Catalog, UnknownTableError
from repro.storage.rid import RID

from tests import _dml_workload as workload

#: sha256 of the view a reader rebuilds after 60 ops of
#: ``tests/_dml_workload.apply_ops``, recorded at
#: ``e029c8e`` (the view was a per-tuple heap scan there) with this file's
#: ``_view_digest``.
VIEW_DIGESTS = {
    "dense-plain": "2fa1a55069d67c1766b72c38e708a42820981db74148cbc5f7c5c98d671947ab",
    "dense-compress": "529ae63cd1d45a10827a9c5ff8459c0357c7cc9cc8edcc320ecc23acce9d79c5",
    "sparse-plain": "894edf306978d87c3f87b051016b05206dfe402ff7cd8ea94a065f9a16d9647e",
    "sparse-compress": "894edf306978d87c3f87b051016b05206dfe402ff7cd8ea94a065f9a16d9647e",
}


class TestCatalog:
    def test_create_and_get(self, dense_binary):
        catalog = Catalog(page_bytes=1024)
        info = catalog.create_table("t", dense_binary)
        assert catalog.get("t") is info
        assert "t" in catalog
        assert catalog.names() == ["t"]

    def test_duplicate_rejected(self, dense_binary):
        catalog = Catalog(page_bytes=1024)
        catalog.create_table("t", dense_binary)
        with pytest.raises(ValueError):
            catalog.create_table("t", dense_binary)

    def test_drop(self, dense_binary):
        catalog = Catalog(page_bytes=1024)
        catalog.create_table("t", dense_binary)
        catalog.drop_table("t")
        assert "t" not in catalog
        with pytest.raises(UnknownTableError):
            catalog.drop_table("t")

    def test_unknown_get(self):
        with pytest.raises(UnknownTableError):
            Catalog().get("ghost")

    def test_labels(self, dense_binary):
        catalog = Catalog(page_bytes=1024)
        catalog.create_table("t", dense_binary)
        np.testing.assert_array_equal(catalog.labels("t"), dense_binary.y)


class TestTableStatistics:
    def test_dense_values_per_tuple(self, dense_binary):
        info = Catalog(page_bytes=1024).create_table("t", dense_binary)
        assert info.values_per_tuple == dense_binary.n_features

    def test_sparse_values_per_tuple(self, sparse_binary):
        info = Catalog(page_bytes=1024).create_table("t", sparse_binary)
        expected = sparse_binary.X.nnz / sparse_binary.n_tuples
        assert info.values_per_tuple == pytest.approx(expected)

    def test_tuple_bytes_dense(self, dense_binary):
        info = Catalog(page_bytes=1024).create_table("t", dense_binary)
        # header(20) + 8 * n_features
        assert info.tuple_bytes == pytest.approx(20 + 8 * dense_binary.n_features)

    def test_table_bytes_covers_pages(self, dense_binary):
        info = Catalog(page_bytes=1024).create_table("t", dense_binary)
        assert info.table_bytes == info.heap.n_pages * 1024
        assert info.table_bytes >= info.heap.payload_bytes

    def test_n_tuples(self, dense_binary):
        info = Catalog(page_bytes=1024).create_table("t", dense_binary)
        assert info.n_tuples == dense_binary.n_tuples


def _indexed_table(kind: str, compress: bool = False):
    if kind == "sparse":
        dataset = make_binary_sparse(150, workload.N_FEATURES, nnz_per_row=3, seed=5)
    else:
        dataset = make_binary_dense(150, workload.N_FEATURES, separation=1.0, seed=5)
    catalog = Catalog(page_bytes=512)
    info = catalog.create_table("t", dataset, compress=compress)
    catalog.create_index("t", "ix", "f0")
    catalog.create_index("t", "ix_label", "label")
    return catalog, info


def _view_digest(view) -> str:
    """X (the CSR triple for a sparse view) and y: bytes, dtypes and shapes."""
    X = view.X
    parts = (X.indptr, X.indices, X.data) if isinstance(X, SparseMatrix) else (X,)
    digest = hashlib.sha256()
    for array in (*parts, view.y):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "compress"])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
class TestBatchCatalogPaths:
    """The view, ``CREATE INDEX`` and ``verify_indexes`` read the heap a page
    batch at a time; what they build is what the per-tuple scan built."""

    def test_view_after_mixed_dml_matches_the_parent(self, kind, compress):
        _catalog, info = _indexed_table(kind, compress)
        workload.apply_ops(info, 60)
        assert _view_digest(info.dataset) == VIEW_DIGESTS[f"{kind}-{'compress' if compress else 'plain'}"]
        info.verify_indexes()

    def test_empty_table_rebuilds_an_empty_view_and_index(self, kind, compress):
        catalog, info = _indexed_table(kind, compress)
        info.delete_rids([info.heap.rid_of(p) for p in range(info.n_tuples)])
        view = info.dataset
        assert view.n_tuples == 0 and view.X.shape == (0, workload.N_FEATURES)
        assert view.y.dtype == np.float64
        index = catalog.create_index("t", "ix_f1", "f1")
        assert index.tree.n_entries == 0
        info.verify_indexes()

    def test_verify_indexes_catches_a_stray_entry(self, kind, compress):
        _catalog, info = _indexed_table(kind, compress)
        info.verify_indexes()
        info.indexes["ix"].tree.insert(0.5, RID(info.heap.n_pages + 3, 0))
        with pytest.raises(AssertionError, match="0 missing, 1 stray"):
            info.verify_indexes()
