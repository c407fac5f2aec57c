"""A minimal CSR sparse matrix for high-dimensional linear models.

The paper stores sparse datasets (e.g. criteo, one million features) in
PostgreSQL as ``<id, features_k[], features_v[], label>`` rows, where
``features_k`` holds the indices of non-zero dimensions and ``features_v``
their values.  This module provides the in-memory analogue: a compressed
sparse row matrix supporting exactly the operations the SGD kernels need
(row extraction, row-times-vector, scaled row-into-vector accumulation, and
matrix-vector products for vectorised loss evaluation).

We implement it from scratch rather than depending on ``scipy.sparse`` so the
storage codec (``repro.storage.codec``) and the DB tuple layout can share the
same index/value representation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .. import _native
from .._native import F64, I64, addr, plain

__all__ = ["SparseMatrix", "SparseRow", "segment_positions", "gather_csr_rows"]


def segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat positions covering ``[starts[i], starts[i] + lengths[i])`` per segment."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    # One array end to end (row gathers run over whole tables): +1 inside a
    # segment, a jump from one segment's last position to the next's first.
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    steps[np.cumsum(lengths)[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(steps, out=steps)


def gather_csr_rows(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR triple of ``rows`` (any order, repeats allowed), in one gather.

    The single row-gather behind :meth:`SparseMatrix.take_rows` and
    :meth:`~repro.storage.codec.TupleBatch.take`.  Contiguous ``int64`` /
    ``float64`` input with every row in ``[0, n)`` is copied row segment by
    row segment in the compiled library (:mod:`repro._native`); anything else
    — and every host without the library — runs :func:`_numpy_gather`, the
    reference, which the compiled gather equals bit for bit.
    """
    if _LIB is not None:
        out = _compiled_gather(_LIB, indptr, indices, data, rows)
        if out is not None:
            return out
    return _numpy_gather(indptr, indices, data, rows)


def _numpy_gather(indptr, indices, data, rows):
    """The numpy gather: the reference, and the path for any input the
    compiled gather does not take."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    positions = segment_positions(starts, counts)
    out_indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out_indptr[1:])
    return out_indptr, indices[positions], data[positions]


def _compiled_gather(lib, indptr, indices, data, rows):
    """:func:`gather_csr_rows` in two compiled calls; ``None`` when the input
    is not plain ``int64`` / ``float64`` arrays or a row or segment is out of
    range (numpy then wraps or raises as it does)."""
    if not (
        plain(indptr, I64) and plain(indices, I64) and plain(data, F64) and plain(rows, I64)
    ) or not indptr.size:
        return None
    n, nnz, m = indptr.size - 1, min(indices.size, data.size), rows.size
    out_indptr = np.empty(m + 1, dtype=np.int64)
    total = lib.csr_gather_plan(addr(indptr), n, nnz, addr(rows), m, addr(out_indptr))
    if total < 0:
        return None
    out_indices, out_data = np.empty(total, dtype=np.int64), np.empty(total, dtype=np.float64)
    rc = lib.csr_gather_copy(
        addr(indptr), n, nnz, addr(rows), m, addr(out_indptr),
        addr(indices), addr(data), addr(out_indices), addr(out_data),
    )
    return (out_indptr, out_indices, out_data) if rc == 0 else None


def _probe(lib) -> bool:
    """Does the compiled gather give :func:`_numpy_gather`'s arrays on a fixed matrix?"""
    indptr = np.array([0, 2, 2, 5, 6], dtype=np.int64)  # row 1 is empty
    indices = np.array([3, 1, 0, 2, 4, 1], dtype=np.int64)
    data = np.sin(np.arange(6.0))
    rows = np.array([3, 0, 1, 3, 2], dtype=np.int64)
    got = _compiled_gather(lib, indptr, indices, data, rows)
    want = _numpy_gather(indptr, indices, data, rows)
    return got is not None and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want)
    )


class SparseRow:
    """A single sparse example: parallel index and value arrays."""

    __slots__ = ("indices", "values", "n_features", "_unique")

    def __init__(self, indices: np.ndarray, values: np.ndarray, n_features: int):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.indices.shape != self.values.shape:
            raise ValueError(
                f"indices/values length mismatch: {self.indices.shape} vs {self.values.shape}"
            )
        self.n_features = int(n_features)
        self._unique: bool | None = None  # detected on first use

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def has_unique_indices(self) -> bool:
        """True when no feature index repeats (fast scatter-add is safe).

        Detected once, on first use — only ``add_into`` asks, and row views
        are handed out by the thousand.  Rows decoded from the codec / CSR
        slices are strictly sorted, so the diff check is the common case.
        """
        if self._unique is None:
            n = self.indices.size
            self._unique = n <= 1 or bool(np.all(np.diff(self.indices) > 0)) or (
                np.unique(self.indices).size == n
            )
        return self._unique

    def dot(self, w: np.ndarray) -> float:
        """Inner product with a dense weight vector."""
        return float(self.values @ w[self.indices])

    def add_into(self, out: np.ndarray, scale: float) -> None:
        """``out[indices] += scale * values`` (scatter-add).

        Duplicate-free rows (the overwhelmingly common case) use direct
        fancy-index ``+=``; rows with repeated indices fall back to the
        slower but duplicate-accumulating ``np.add.at``.
        """
        if self.has_unique_indices:
            out[self.indices] += scale * self.values
        else:
            np.add.at(out, self.indices, scale * self.values)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n_features, dtype=np.float64)
        dense[self.indices] = self.values
        return dense

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseRow(nnz={self.nnz}, n_features={self.n_features})"


class SparseMatrix:
    """Compressed sparse row matrix over float64 data.

    Parameters
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1``.
    indices:
        Column index array of length ``nnz``.
    data:
        Value array of length ``nnz``.
    shape:
        ``(n_rows, n_cols)``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.size != self.shape[0] + 1:
            raise ValueError("indptr must have n_rows + 1 entries")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data must have equal length")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr[-1] must equal nnz")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[SparseRow], n_features: int) -> "SparseMatrix":
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([row.nnz for row in rows], out=indptr[1:])
        indices = np.concatenate([row.indices for row in rows]) if rows else np.empty(0)
        data = np.concatenate([row.values for row in rows]) if rows else np.empty(0)
        return cls(indptr, indices, data, (len(rows), n_features))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows = []
        for i in range(dense.shape[0]):
            nz = np.nonzero(dense[i])[0]
            rows.append(SparseRow(nz, dense[i, nz], dense.shape[1]))
        return cls.from_rows(rows, dense.shape[1])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def row(self, i: int) -> SparseRow:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseRow(self.indices[lo:hi], self.data[lo:hi], self.n_cols)

    def iter_rows(self) -> Iterable[SparseRow]:
        for i in range(self.n_rows):
            yield self.row(i)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def dot(self, w: np.ndarray) -> np.ndarray:
        """Matrix-vector product ``X @ w`` returning a dense vector."""
        w = np.asarray(w, dtype=np.float64)
        products = self.data * w[self.indices]
        if not products.size:
            return np.zeros(self.n_rows, dtype=np.float64)
        # Segment-sum by row; bincount handles empty rows correctly.
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return np.bincount(row_ids, weights=products, minlength=self.n_rows)

    def t_dot(self, v: np.ndarray) -> np.ndarray:
        """Transposed product ``X.T @ v`` returning a dense vector."""
        v = np.asarray(v, dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        # bincount is a segment-sum over column ids — same accumulation order
        # as np.add.at but without its per-element dispatch overhead.
        return np.bincount(
            self.indices, weights=self.data * v[row_ids], minlength=self.n_cols
        )

    def take_rows(self, order: np.ndarray) -> "SparseMatrix":
        """Return a new matrix with rows permuted/selected by ``order``."""
        order = np.asarray(order, dtype=np.int64)
        indptr, indices, data = gather_csr_rows(self.indptr, self.indices, self.data, order)
        return SparseMatrix(indptr, indices, data, (order.size, self.n_cols))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        dense[row_ids, self.indices] = self.data
        return dense

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


#: The compiled row gather, when the library loaded and its probe passed.
_LIB = _native.LIB if _native.LIB is not None and _probe(_native.LIB) else None
