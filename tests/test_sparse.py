"""Unit and property tests for the CSR sparse matrix."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import sparse as sparse_module
from repro.data.sparse import SparseMatrix, SparseRow, gather_csr_rows
from repro.storage import TupleBatch


def random_dense(rng: np.random.Generator, n: int, d: int, density: float = 0.3) -> np.ndarray:
    dense = rng.standard_normal((n, d))
    mask = rng.random((n, d)) < density
    return dense * mask


class TestSparseRow:
    def test_dot_matches_dense(self):
        row = SparseRow([1, 4, 7], [2.0, -1.0, 0.5], 10)
        w = np.arange(10, dtype=float)
        assert row.dot(w) == pytest.approx(2.0 * 1 - 1.0 * 4 + 0.5 * 7)

    def test_add_into_scatter(self):
        row = SparseRow([0, 3], [1.0, 2.0], 5)
        out = np.zeros(5)
        row.add_into(out, scale=-2.0)
        np.testing.assert_allclose(out, [-2.0, 0, 0, -4.0, 0])

    def test_add_into_duplicate_indices_accumulate(self):
        row = SparseRow([2, 2], [1.0, 1.0], 4)
        out = np.zeros(4)
        row.add_into(out, scale=1.0)
        assert out[2] == pytest.approx(2.0)

    def test_to_dense(self):
        row = SparseRow([1], [3.0], 3)
        np.testing.assert_allclose(row.to_dense(), [0, 3.0, 0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SparseRow([1, 2], [1.0], 5)

    def test_nnz(self):
        assert SparseRow([0, 1, 2], [1, 2, 3], 5).nnz == 3


class TestSparseMatrix:
    def setup_method(self):
        self.rng = np.random.default_rng(5)
        self.dense = random_dense(self.rng, 8, 6)
        self.sparse = SparseMatrix.from_dense(self.dense)

    def test_shape_and_nnz(self):
        assert self.sparse.shape == (8, 6)
        assert self.sparse.nnz == int(np.count_nonzero(self.dense))

    def test_roundtrip_to_dense(self):
        np.testing.assert_allclose(self.sparse.to_dense(), self.dense)

    def test_dot_matches_dense(self):
        w = self.rng.standard_normal(6)
        np.testing.assert_allclose(self.sparse.dot(w), self.dense @ w)

    def test_dot_with_empty_rows(self):
        dense = np.zeros((4, 3))
        dense[1, 2] = 5.0
        sparse = SparseMatrix.from_dense(dense)
        w = np.array([1.0, 1.0, 2.0])
        np.testing.assert_allclose(sparse.dot(w), [0, 10.0, 0, 0])

    def test_dot_all_empty(self):
        sparse = SparseMatrix.from_dense(np.zeros((3, 4)))
        np.testing.assert_allclose(sparse.dot(np.ones(4)), np.zeros(3))

    def test_t_dot_matches_dense(self):
        v = self.rng.standard_normal(8)
        np.testing.assert_allclose(self.sparse.t_dot(v), self.dense.T @ v)

    def test_take_rows_permutation(self):
        order = np.array([3, 0, 7, 1])
        taken = self.sparse.take_rows(order)
        np.testing.assert_allclose(taken.to_dense(), self.dense[order])

    def test_take_rows_with_repeats(self):
        order = np.array([2, 2, 5])
        taken = self.sparse.take_rows(order)
        np.testing.assert_allclose(taken.to_dense(), self.dense[order])

    def test_row_accessor(self):
        row = self.sparse.row(4)
        np.testing.assert_allclose(row.to_dense(), self.dense[4])

    def test_iter_rows_count(self):
        assert sum(1 for _ in self.sparse.iter_rows()) == 8

    def test_len(self):
        assert len(self.sparse) == 8

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 3))

    def test_indptr_tail_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(np.array([0, 2, 2]), np.array([0]), np.array([1.0]), (2, 3))

    def test_from_rows(self):
        rows = [SparseRow([0], [1.0], 4), SparseRow([1, 3], [2.0, 3.0], 4)]
        matrix = SparseMatrix.from_rows(rows, 4)
        expected = np.array([[1.0, 0, 0, 0], [0, 2.0, 0, 3.0]])
        np.testing.assert_allclose(matrix.to_dense(), expected)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 10),
    seed=st.integers(0, 1000),
)
def test_property_dot_products_match_dense(n, d, seed):
    rng = np.random.default_rng(seed)
    dense = random_dense(rng, n, d, density=0.4)
    sparse = SparseMatrix.from_dense(dense)
    w = rng.standard_normal(d)
    v = rng.standard_normal(n)
    np.testing.assert_allclose(sparse.dot(w), dense @ w, atol=1e-12)
    np.testing.assert_allclose(sparse.t_dot(v), dense.T @ v, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), d=st.integers(1, 8), seed=st.integers(0, 500))
def test_property_take_rows_matches_fancy_index(n, d, seed):
    rng = np.random.default_rng(seed)
    dense = random_dense(rng, n, d)
    sparse = SparseMatrix.from_dense(dense)
    order = rng.integers(0, n, size=n)
    np.testing.assert_allclose(sparse.take_rows(order).to_dense(), dense[order])


# ----------------------------------------------------------------------
# The CSR row gather: compiled or numpy, the same arrays
# ----------------------------------------------------------------------

requires_lib = pytest.mark.skipif(sparse_module._LIB is None, reason="compiled library not loaded")


def _gather_on(impl, *args):
    """``gather_csr_rows(*args)`` with the gather on ``impl``: its arrays, or
    the type of what it raised."""
    with pytest.MonkeyPatch.context() as patch:
        if impl == "numpy":
            patch.setattr(sparse_module, "_LIB", None)
        try:
            return gather_csr_rows(*args)
        except (IndexError, ValueError) as exc:
            return type(exc)


def _assert_same_gather(got, want) -> None:
    if isinstance(want, type):
        assert got is want
        return
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype and a.shape == b.shape


def _gather_matrix() -> SparseMatrix:
    """Six rows over 40 columns; rows 1 and 4 are empty."""
    rows = [[3, 9], [], [0, 7, 39], [5], [], [1, 2, 20, 30]]
    return SparseMatrix.from_rows(
        [SparseRow(r, np.sqrt(np.arange(1.0, len(r) + 1)), 40) for r in rows], 40
    )


class TestCompiledGather:
    """``gather_csr_rows`` copies row segments in the compiled library when the
    input is plain ``int64`` / ``float64``, equal to the numpy gather; anything
    else runs the numpy gather, which wraps or raises as numpy does."""

    @requires_lib
    @pytest.mark.parametrize(
        "rows",
        [[5, 0, 2], [1, 4, 1], [2, 2, 2, 0, 5, 5], [], [3], list(range(6))],
        ids=["permuted", "empty-rows", "repeated", "none", "one", "all"],
    )
    def test_equals_the_numpy_gather(self, rows):
        X = _gather_matrix()
        args = (X.indptr, X.indices, X.data, np.array(rows, dtype=np.int64))
        assert sparse_module._compiled_gather(sparse_module._LIB, *args) is not None
        _assert_same_gather(_gather_on("compiled", *args), _gather_on("numpy", *args))

    @requires_lib
    def test_zero_nnz_matrix(self):
        X = SparseMatrix(np.zeros(4, np.int64), np.zeros(0, np.int64), np.zeros(0), (3, 10))
        for rows in ([0, 2, 2], []):
            args = (X.indptr, X.indices, X.data, np.array(rows, dtype=np.int64))
            got = _gather_on("compiled", *args)
            _assert_same_gather(got, _gather_on("numpy", *args))
            assert got[1].size == 0 and got[0].tolist() == [0] * (len(rows) + 1)

    @pytest.mark.parametrize(
        "rows", [[-1], [0, -2], [-6, 3], [6], [2, 7], [-8]], ids=str
    )
    def test_bad_rows_wrap_or_raise_as_numpy_does(self, rows):
        X = _gather_matrix()
        # The word past indptr's end holds nnz: a loop that read row n there
        # would see a valid empty row instead of refusing it.
        indptr = np.append(X.indptr, X.indptr[-1])[:-1]
        args = (indptr, X.indices, X.data, np.array(rows, dtype=np.int64))
        if sparse_module._LIB is not None:
            assert sparse_module._compiled_gather(sparse_module._LIB, *args) is None
        got, want = _gather_on("compiled", *args), _gather_on("numpy", *args)
        _assert_same_gather(got, want)
        if max(rows) >= 6:
            assert want is IndexError

    def test_int32_and_strided_input_falls_back(self, monkeypatch):
        X = _gather_matrix()
        rows = np.array([5, 0, 2, 2], dtype=np.int64)
        want = _gather_on("numpy", X.indptr, X.indices, X.data, rows)
        cases = [
            (X.indptr, X.indices.astype(np.int32), X.data, rows),
            (X.indptr.astype(np.int32), X.indices, X.data, rows),
            (X.indptr, X.indices, np.repeat(X.data, 2)[::2], rows),
            (X.indptr, X.indices, X.data, np.repeat(rows, 2)[::2]),
            (X.indptr, X.indices, X.data, rows.astype(np.int32)),
        ]
        calls = []
        positions = sparse_module.segment_positions
        monkeypatch.setattr(
            sparse_module, "segment_positions", lambda *a: calls.append(1) or positions(*a)
        )
        for args in cases:
            got = gather_csr_rows(*args)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert len(calls) == len(cases)  # every one through the numpy gather

    def test_take_on_a_batch_equals_the_numpy_gather(self):
        X = _gather_matrix()
        batch = TupleBatch(
            np.arange(6), np.ones(6), 40, indptr=X.indptr, indices=X.indices, values=X.data
        )
        rows = np.array([4, 1, 5, 5, 0])
        got = batch.take(rows)
        want = _gather_on("numpy", X.indptr, X.indices, X.data, rows)
        for a, b in zip((got.indptr, got.indices, got.values), want):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
