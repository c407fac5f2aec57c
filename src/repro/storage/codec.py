"""Binary tuple codec.

Serialises training tuples to bytes using the paper's storage schema
``<id, features_k[], features_v[], label>`` (Section 6): dense tuples store
only ``features_v``, sparse tuples store parallel index/value arrays.  The
codec is shared by the heap-file pages of the mini database engine and the
on-disk block files of the PyTorch-style integration, so both sides measure
identical tuple sizes.

Wire format (little-endian):

* header: ``tuple_id:int64, label:float64, nnz:int32`` where ``nnz < 0``
  marks a dense tuple of ``-nnz`` values;
* dense payload: ``-nnz`` float64 feature values;
* sparse payload: ``nnz`` int32 indices followed by ``nnz`` float64 values.

Two decode granularities are provided:

* :func:`decode_tuple` — the scalar reference path, one ``struct`` parse per
  tuple;
* :func:`decode_page` / :func:`decode_block` — the vectorized path: parse a
  whole run of concatenated tuples in bulk via ``np.frombuffer`` into a
  columnar :class:`TupleBatch` (ids, labels, and either a dense matrix or
  CSR indptr/indices/values).  Uniform pages (all-dense of one width, or
  all-sparse) take the bulk path; irregular pages fall back to repeated
  :func:`decode_tuple`, so the batch output is always element-wise identical
  to the scalar path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..data.sparse import SparseMatrix, SparseRow, gather_csr_rows, segment_positions

__all__ = [
    "TupleSchema",
    "TrainingTuple",
    "TupleBatch",
    "RowStream",
    "encode_tuple",
    "encode_rows",
    "encoded_row_bounds",
    "decode_tuple",
    "decode_page",
    "decode_block",
    "encode_block_columnar",
    "decode_block_columnar",
]

_HEADER = struct.Struct("<qdi")
_SPARSE_HEADER_DTYPE = np.dtype([("id", "<i8"), ("label", "<f8"), ("nnz", "<i4")])
_HEADER_WORDS = _HEADER.size // 4


@dataclass(frozen=True)
class TupleSchema:
    """Static description of a table's tuples."""

    n_features: int
    sparse: bool = False

    def dense_tuple_bytes(self) -> int:
        """Size of one dense tuple under this schema."""
        return _HEADER.size + 8 * self.n_features

    def sparse_tuple_bytes(self, nnz: int) -> int:
        return _HEADER.size + 12 * nnz


@dataclass
class TrainingTuple:
    """A decoded training tuple."""

    tuple_id: int
    label: float
    features: np.ndarray | SparseRow

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.features, SparseRow)


@dataclass
class TupleBatch:
    """A columnar run of decoded tuples.

    Either ``dense`` is a ``(n, d)`` float64 matrix, or the CSR triple
    ``indptr``/``indices``/``values`` describes ``n`` sparse rows over
    ``n_features`` columns.  ``ids``/``labels`` are parallel per-row arrays.

    Rows handed out by :meth:`row` / :meth:`to_tuples` are views into the
    columnar arrays (not copies): the batch is the single owner of the
    decoded data, which is what makes block-granular decode cheap.

    :meth:`slice` and :meth:`take` are the two primitives the batch-at-a-time
    operators move rows with.  Both read only the column attributes, so
    :class:`~repro.storage.columnar.LazyTupleBatch` shares them and a lazy
    page decodes just the chunks a gather touches.
    """

    ids: np.ndarray
    labels: np.ndarray
    n_features: int
    dense: np.ndarray | None = None
    indptr: np.ndarray | None = None
    indices: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.dense is None) == (self.indptr is None):
            raise ValueError("exactly one of dense / indptr must be set")
        if self.indptr is not None and self.indptr.size != self.ids.size + 1:
            raise ValueError("indptr must have n + 1 entries")

    @property
    def is_sparse(self) -> bool:
        return self.dense is None

    def __len__(self) -> int:
        return int(self.ids.size)

    # ------------------------------------------------------------------
    def row(self, i: int) -> np.ndarray | SparseRow:
        """Features of row ``i`` (a view into the columnar arrays)."""
        if self.dense is not None:
            return self.dense[i]
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseRow(self.indices[lo:hi], self.values[lo:hi], self.n_features)

    def to_tuples(self) -> list[TrainingTuple]:
        """Materialise the per-tuple view (the operators' ``next()`` adapter, ``get_page``)."""
        ids = self.ids.tolist()
        labels = self.labels.tolist()
        return [
            TrainingTuple(ids[i], labels[i], self.row(i)) for i in range(len(self))
        ]

    def features_matrix(self) -> np.ndarray | SparseMatrix:
        """The features as a dense matrix or :class:`SparseMatrix`."""
        if self.dense is not None:
            return self.dense
        return SparseMatrix(
            self.indptr, self.indices, self.values, (len(self), self.n_features)
        )

    def slice(self, lo: int, hi: int) -> "TupleBatch":
        """Rows ``[lo, hi)`` as zero-copy views (CSR ``indptr`` is rebased)."""
        ids, labels = self.ids[lo:hi], self.labels[lo:hi]
        if not self.is_sparse:
            return TupleBatch(ids, labels, self.n_features, dense=self.dense[lo:hi])
        indptr = self.indptr
        a, b = indptr[lo], indptr[hi]
        return TupleBatch(
            ids, labels, self.n_features,
            indptr=indptr[lo : hi + 1] - a, indices=self.indices[a:b], values=self.values[a:b],
        )

    def take(self, rows: np.ndarray) -> "TupleBatch":
        """Rows ``rows`` (any order, repeats allowed) gathered into a new batch."""
        rows = np.asarray(rows, dtype=np.int64)
        ids, labels = self.ids[rows], self.labels[rows]
        if not self.is_sparse:
            return TupleBatch(ids, labels, self.n_features, dense=self.dense[rows])
        indptr, indices, values = gather_csr_rows(self.indptr, self.indices, self.values, rows)
        return TupleBatch(
            ids, labels, self.n_features, indptr=indptr, indices=indices, values=values
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls, records: Sequence[TrainingTuple], schema: TupleSchema
    ) -> "TupleBatch":
        """Columnarise already-decoded tuples (the scalar fallback path)."""
        n = len(records)
        ids = np.fromiter((r.tuple_id for r in records), dtype=np.int64, count=n)
        labels = np.fromiter((r.label for r in records), dtype=np.float64, count=n)
        if not schema.sparse:
            dense = (
                np.stack([np.asarray(r.features, dtype=np.float64) for r in records])
                if n
                else np.empty((0, schema.n_features), dtype=np.float64)
            )
            if dense.shape[1] != schema.n_features:
                raise ValueError(
                    f"dense rows have {dense.shape[1]} features, schema says "
                    f"{schema.n_features}"
                )
            return cls(ids, labels, schema.n_features, dense=dense)
        csr = SparseMatrix.from_rows(
            [_as_sparse_row(r.features, schema.n_features) for r in records], schema.n_features
        )
        return cls(
            ids, labels, schema.n_features,
            indptr=csr.indptr, indices=csr.indices, values=csr.data,
        )

    @classmethod
    def concat(cls, batches: Sequence["TupleBatch"]) -> "TupleBatch":
        """Stack batches of one schema into a single batch (e.g. a page run)."""
        if not batches:
            raise ValueError("cannot concat zero batches")
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        ids = np.concatenate([b.ids for b in batches])
        labels = np.concatenate([b.labels for b in batches])
        if not first.is_sparse:
            return cls(
                ids,
                labels,
                first.n_features,
                dense=np.concatenate([b.dense for b in batches], axis=0),
            )
        counts = np.concatenate([np.diff(b.indptr) for b in batches])
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            ids,
            labels,
            first.n_features,
            indptr=indptr,
            indices=np.concatenate([b.indices for b in batches]),
            values=np.concatenate([b.values for b in batches]),
        )


class RowStream:
    """A batch stream read in row counts that ignore batch edges.

    The carry rule in one place: ``pull(limit)`` hands out at most ``limit``
    rows of the current batch as a zero-copy slice and asks ``next_batch``
    (a child operator's, a loader's fill iterator's — anything returning a
    batch, or ``None`` when dry) for another only once that batch is used
    up.  A batch that crosses a fill (or update-unit, or accounting-chunk,
    or sync-step) boundary is cut there and its tail carried into the next
    call.
    """

    def __init__(self, next_batch: Callable[[], "TupleBatch | None"]):
        self._next_batch = next_batch
        self._batch: TupleBatch | None = None
        self._pos = 0

    @property
    def at_edge(self) -> bool:
        """True when the next ``pull`` goes to the source (and may charge I/O)."""
        return self._batch is None or self._pos >= len(self._batch)

    def pull(self, limit: int) -> "TupleBatch | None":
        """Up to ``limit`` rows from one source batch; ``None`` at end of pass."""
        if self.at_edge:
            self._batch, self._pos = self._next_batch(), 0
            if self._batch is None:
                return None
        lo, n = self._pos, len(self._batch)
        self._pos = hi = min(lo + limit, n)
        return self._batch if hi - lo == n else self._batch.slice(lo, hi)

    def take(self, n_rows: int) -> "TupleBatch | None":
        """The next ``n_rows`` rows as one batch (fewer only at end of pass).

        A run inside one source batch stays a zero-copy slice; a run that
        straddles batches is one C-contiguous ``concat``.
        """
        parts, got = [], 0
        while got < n_rows and (part := self.pull(n_rows - got)) is not None:
            parts.append(part)
            got += len(part)
        return TupleBatch.concat(parts) if parts else None

    def skip(self, n_rows: int) -> None:
        """Drop the next ``n_rows`` rows (a resumed run's already-applied prefix)."""
        while n_rows > 0 and (part := self.pull(n_rows)) is not None:
            n_rows -= len(part)


def encode_tuple(tuple_id: int, label: float, features: np.ndarray | SparseRow) -> bytes:
    """Serialise one tuple to bytes."""
    if isinstance(features, SparseRow):
        header = _HEADER.pack(tuple_id, float(label), features.nnz)
        idx = features.indices.astype("<i4").tobytes()
        val = features.values.astype("<f8").tobytes()
        return header + idx + val
    dense = np.asarray(features, dtype="<f8")
    header = _HEADER.pack(tuple_id, float(label), -dense.size)
    return header + dense.tobytes()


def encode_rows(batch: "TupleBatch") -> bytes:
    """Serialise a whole batch: ``b"".join(encode_tuple(...))`` over its rows,
    byte for byte, without the per-row loop.

    The write-side twin of :func:`_decode_dense_run` /
    :func:`_decode_sparse_run`.  A dense run is one packed structured array;
    a sparse run is one preallocated buffer filled by three scatters (every
    field of the wire format is a whole number of 4-byte words, so the
    scatters move words, not bytes).
    """
    n = len(batch)
    ids, labels = batch.ids, batch.labels
    if not batch.is_sparse:
        records = np.empty(n, dtype=_dense_record_dtype(batch.n_features))
        records["id"], records["label"], records["nnz"] = ids, labels, -batch.n_features
        records["vals"] = batch.dense
        return records.tobytes()
    counts = np.diff(batch.indptr)
    headers = np.empty(n, dtype=_SPARSE_HEADER_DTYPE)
    headers["id"], headers["label"], headers["nnz"] = ids, labels, counts
    # Row i starts at word 5 i + 3 indptr[i]: header, then nnz one-word
    # indices, then nnz two-word values.
    starts = _HEADER_WORDS * np.arange(n, dtype=np.int64) + 3 * batch.indptr[:-1]
    out = np.empty(_HEADER_WORDS * n + 3 * int(batch.indptr[-1]), dtype="<u4")
    out[starts[:, None] + np.arange(_HEADER_WORDS)] = headers.view("<u4").reshape(n, _HEADER_WORDS)
    out[segment_positions(starts + _HEADER_WORDS, counts)] = batch.indices.astype("<i4").view("<u4")
    out[segment_positions(starts + _HEADER_WORDS + counts, 2 * counts)] = (
        np.ascontiguousarray(batch.values, dtype="<f8").view("<u4")
    )
    return out.tobytes()


def encoded_row_bounds(batch: "TupleBatch") -> np.ndarray:
    """The ``n + 1`` byte offsets that cut :func:`encode_rows`' output into rows."""
    rows = np.arange(len(batch) + 1, dtype=np.int64)
    if batch.is_sparse:
        return _HEADER.size * rows + 12 * batch.indptr
    return (_HEADER.size + 8 * batch.n_features) * rows


def decode_tuple(buffer: bytes, offset: int, schema: TupleSchema) -> tuple[TrainingTuple, int]:
    """Deserialise one tuple starting at ``offset``; return (tuple, next offset)."""
    tuple_id, label, nnz = _HEADER.unpack_from(buffer, offset)
    offset += _HEADER.size
    if nnz < 0:
        n = -nnz
        values = np.frombuffer(buffer, dtype="<f8", count=n, offset=offset).copy()
        offset += 8 * n
        return TrainingTuple(tuple_id, label, values), offset
    indices = np.frombuffer(buffer, dtype="<i4", count=nnz, offset=offset).astype(np.int64)
    offset += 4 * nnz
    values = np.frombuffer(buffer, dtype="<f8", count=nnz, offset=offset).copy()
    offset += 8 * nnz
    row = SparseRow(indices, values, schema.n_features)
    return TrainingTuple(tuple_id, label, row), offset


# ----------------------------------------------------------------------
# Bulk (columnar) decode
# ----------------------------------------------------------------------

def decode_page(
    buffer: bytes, n_tuples: int, schema: TupleSchema, offset: int = 0
) -> TupleBatch:
    """Decode ``n_tuples`` concatenated tuples starting at ``offset`` in bulk.

    Uniform runs are parsed with a handful of ``np.frombuffer``/gather calls
    instead of one ``struct`` parse per tuple; irregular runs (mixed layouts)
    fall back to repeated :func:`decode_tuple`.
    """
    if n_tuples == 0:
        return TupleBatch.from_tuples([], schema)
    if not schema.sparse:
        batch = _decode_dense_run(buffer, n_tuples, schema, offset)
        if batch is not None:
            return batch
    else:
        batch = _decode_sparse_run(buffer, n_tuples, schema, offset)
        if batch is not None:
            return batch
    return TupleBatch.from_tuples(
        _decode_run_scalar(buffer, n_tuples, schema, offset), schema
    )


def decode_block(
    buffer: bytes, n_tuples: int, schema: TupleSchema, offset: int = 0
) -> TupleBatch:
    """Decode one block's concatenated tuples (a block is a page run)."""
    return decode_page(buffer, n_tuples, schema, offset=offset)


def _decode_run_scalar(
    buffer: bytes, n_tuples: int, schema: TupleSchema, offset: int
) -> list[TrainingTuple]:
    out: list[TrainingTuple] = []
    for _ in range(n_tuples):
        decoded, offset = decode_tuple(buffer, offset, schema)
        out.append(decoded)
    return out


def _dense_record_dtype(n_features: int) -> np.dtype:
    return np.dtype(
        [("id", "<i8"), ("label", "<f8"), ("nnz", "<i4"), ("vals", "<f8", (n_features,))]
    )


def _decode_dense_run(
    buffer: bytes, n_tuples: int, schema: TupleSchema, offset: int
) -> TupleBatch | None:
    """Bulk-parse a uniform dense run, or ``None`` if the layout is irregular."""
    d = schema.n_features
    record_bytes = _HEADER.size + 8 * d
    if len(buffer) - offset < n_tuples * record_bytes:
        return None
    records = np.frombuffer(
        buffer, dtype=_dense_record_dtype(d), count=n_tuples, offset=offset
    )
    if not np.all(records["nnz"] == -d):
        return None
    return TupleBatch(
        ids=records["id"].astype(np.int64),
        labels=records["label"].astype(np.float64),
        n_features=d,
        dense=records["vals"].astype(np.float64),
    )


def _decode_sparse_run(
    buffer: bytes, n_tuples: int, schema: TupleSchema, offset: int
) -> TupleBatch | None:
    """Bulk-parse a uniform sparse run, or ``None`` if the layout is irregular.

    Record lengths vary with nnz, so one cheap sequential pass parses the
    headers (offset chain); the index/value payloads are then gathered with
    two vectorized byte-gathers instead of per-tuple ``frombuffer`` calls.
    """
    header_size = _HEADER.size
    unpack = _HEADER.unpack_from
    ids = np.empty(n_tuples, dtype=np.int64)
    labels = np.empty(n_tuples, dtype=np.float64)
    counts = np.empty(n_tuples, dtype=np.int64)
    starts = np.empty(n_tuples, dtype=np.int64)
    end = len(buffer)
    pos = offset
    for i in range(n_tuples):
        if pos + header_size > end:
            return None
        tid, label, nnz = unpack(buffer, pos)
        if nnz < 0:  # a dense record inside a sparse run: irregular
            return None
        ids[i] = tid
        labels[i] = label
        counts[i] = nnz
        starts[i] = pos + header_size
        pos += header_size + 12 * nnz
    if pos > end:
        return None
    u8 = np.frombuffer(buffer, dtype=np.uint8)
    idx_bytes = u8[segment_positions(starts, 4 * counts)]
    val_bytes = u8[segment_positions(starts + 4 * counts, 8 * counts)]
    indptr = np.zeros(n_tuples + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return TupleBatch(
        ids=ids,
        labels=labels,
        n_features=schema.n_features,
        indptr=indptr,
        indices=idx_bytes.view("<i4").astype(np.int64),
        values=val_bytes.view("<f8").astype(np.float64),
    )


def _as_sparse_row(features: np.ndarray | SparseRow, n_features: int) -> SparseRow:
    if isinstance(features, SparseRow):
        return features
    dense = np.asarray(features, dtype=np.float64)
    nz = np.nonzero(dense)[0]
    return SparseRow(nz, dense[nz], n_features)


def encode_block_columnar(batch, schema=None):
    """Columnar-tier encode; see :mod:`repro.storage.columnar`."""
    from .columnar import encode_block_columnar as _encode

    return _encode(batch, schema)


def decode_block_columnar(buffer, schema=None, offset=0, columns=None, verify_chunks=False):
    """Columnar-tier lazy decode; see :mod:`repro.storage.columnar`."""
    from .columnar import decode_block_columnar as _decode

    return _decode(
        buffer, schema, offset=offset, columns=columns, verify_chunks=verify_chunks
    )
