"""Columnar compressed block format with lazy zero-copy views.

The row codec (:mod:`repro.storage.codec`) interleaves every tuple's id,
label, and features, so a reader pays the full decode even for columns it
never touches.  This module adds the columnar tier (ROADMAP item 4): one
block is stored as *per-column chunks* behind a binary column directory, so
readers can seek to — and decode — exactly the columns a consumer needs.

Block payload layout (all little-endian; pinned in
``docs/storage_format.md``)::

    header (16 bytes)   magic b"CPB1" | version u16 | n_tuples u32
                        | n_features u32 | n_cols u8 | flags u8
    directory           n_cols entries of 20 bytes each:
                        col u8 | enc u8 | width u8 | delta u8
                        | offset u32 | length u32 | n_values u32 | crc32 u32
    chunks              each 8-byte aligned, zero-padded between

Columns: ``ids`` (int64), ``labels`` (float64), and either ``dense`` (a
row-major ``n x d`` float64 run) or the CSR triple ``indptr``/``indices``/
``values``.  Encodings:

* ``ENC_F64`` / ``ENC_I64`` — raw little-endian runs.  Decoding is a
  **zero-copy** ``np.frombuffer`` view over the block buffer;
* ``ENC_PACKED`` — integer chunks delta-encoded (when monotone
  non-decreasing) then packed to the minimal byte width (1/2/4/8).  This is
  what shrinks sparse ``indices`` (width follows the feature-space size)
  and ``ids``/``indptr`` (deltas are tiny) well below the row format.

:func:`decode_block_columnar` returns a :class:`LazyTupleBatch`: no column
is decoded up front; each array materialises on first attribute access and
is cached on the batch.  Per-chunk CRC32s in the directory let pruned
readers verify only the bytes they actually read.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..data.sparse import SparseMatrix, SparseRow
from .codec import TrainingTuple, TupleBatch, TupleSchema
from .retry import ChecksumError

__all__ = [
    "COLUMNAR_MAGIC",
    "COLUMNAR_VERSION",
    "COL_IDS",
    "COL_LABELS",
    "COL_DENSE",
    "COL_INDPTR",
    "COL_INDICES",
    "COL_VALUES",
    "COLUMN_NAMES",
    "ChunkRef",
    "LazyTupleBatch",
    "encode_block_columnar",
    "decode_block_columnar",
    "read_columnar_header",
    "columns_for",
]

COLUMNAR_MAGIC = b"CPB1"
COLUMNAR_VERSION = 1

_HEADER = struct.Struct("<4sHIIBB")  # magic, version, n_tuples, n_features, n_cols, flags
_DIR_ENTRY = struct.Struct("<BBBBIIII")  # col, enc, width, delta, offset, length, n_values, crc32
_FLAG_SPARSE = 1

# Column codes (the ``col`` byte of a directory entry).
COL_IDS = 1
COL_LABELS = 2
COL_DENSE = 3
COL_INDPTR = 4
COL_INDICES = 5
COL_VALUES = 6

COLUMN_NAMES = {
    COL_IDS: "ids",
    COL_LABELS: "labels",
    COL_DENSE: "dense",
    COL_INDPTR: "indptr",
    COL_INDICES: "indices",
    COL_VALUES: "values",
}
_NAME_TO_COL = {name: code for code, name in COLUMN_NAMES.items()}

# Chunk encodings.
ENC_F64 = 0  # raw little-endian float64 (zero-copy view)
ENC_I64 = 1  # raw little-endian int64 (zero-copy view)
ENC_PACKED = 2  # unsigned ints, optional delta, packed to ``width`` bytes

_ALIGN = 8
_PACK_WIDTHS = (1, 2, 4)  # candidate packed widths below the raw 8 bytes
_PACK_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}


@dataclass(frozen=True)
class ChunkRef:
    """One column chunk's directory entry."""

    col: int
    enc: int
    width: int
    delta: int
    offset: int
    length: int
    n_values: int
    crc32: int

    @property
    def name(self) -> str:
        return COLUMN_NAMES.get(self.col, f"col{self.col}")

    def to_doc(self) -> dict:
        """JSON form for the block index sidecar."""
        return {
            "col": self.name,
            "enc": self.enc,
            "width": self.width,
            "delta": self.delta,
            "offset": self.offset,
            "length": self.length,
            "n_values": self.n_values,
            "crc32": self.crc32,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ChunkRef":
        return cls(
            col=_NAME_TO_COL[doc["col"]],
            enc=int(doc["enc"]),
            width=int(doc["width"]),
            delta=int(doc["delta"]),
            offset=int(doc["offset"]),
            length=int(doc["length"]),
            n_values=int(doc["n_values"]),
            crc32=int(doc["crc32"]),
        )


def columns_for(names) -> frozenset[int]:
    """Map column names (``"labels"``, ...) to directory codes."""
    out = set()
    for name in names:
        if name not in _NAME_TO_COL:
            raise ValueError(
                f"unknown column {name!r}; one of {sorted(_NAME_TO_COL)}"
            )
        out.add(_NAME_TO_COL[name])
    return frozenset(out)


# ----------------------------------------------------------------------
# Integer chunk packing
# ----------------------------------------------------------------------

def _encode_ints(arr: np.ndarray) -> tuple[int, int, int, bytes]:
    """Encode an int array; returns ``(enc, width, delta, payload)``.

    Monotone non-decreasing arrays are delta-encoded first (``delta[0]`` is
    the raw first value, so decode is one ``cumsum``); the resulting values
    are packed to the smallest byte width that holds their maximum.  Arrays
    with negative values fall back to the raw int64 run.
    """
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    if arr.size == 0:
        return ENC_PACKED, 1, 0, b""
    if arr.min() < 0:
        return ENC_I64, 8, 0, arr.astype("<i8").tobytes()
    delta = 0
    stored = arr
    if arr.size > 1 and np.all(np.diff(arr) >= 0):
        stored = np.diff(arr, prepend=np.int64(0))
        delta = 1
    peak = int(stored.max())
    for width in _PACK_WIDTHS:
        if peak < 1 << (8 * width):
            return ENC_PACKED, width, delta, stored.astype(_PACK_DTYPES[width]).tobytes()
    return ENC_PACKED, 8, delta, stored.astype("<u8").tobytes()


def _decode_chunk(buffer, ref: ChunkRef, base: int) -> np.ndarray:
    """Materialise one chunk from ``buffer`` at ``base + ref.offset``.

    Raw float64/int64 chunks come back as zero-copy ``np.frombuffer`` views;
    packed chunks pay one vectorized widen (+ cumsum when delta-encoded).
    """
    offset = base + ref.offset
    if ref.enc == ENC_F64:
        return np.frombuffer(buffer, dtype="<f8", count=ref.n_values, offset=offset)
    if ref.enc == ENC_I64:
        return np.frombuffer(buffer, dtype="<i8", count=ref.n_values, offset=offset)
    if ref.enc == ENC_PACKED:
        packed = np.frombuffer(
            buffer, dtype=_PACK_DTYPES[ref.width], count=ref.n_values, offset=offset
        )
        out = packed.astype(np.int64)
        if ref.delta:
            np.cumsum(out, out=out)
        return out
    raise ValueError(f"unknown chunk encoding {ref.enc}")


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------

def encode_block_columnar(batch: TupleBatch, schema: TupleSchema | None = None) -> bytes:
    """Serialise one decoded block into the columnar payload.

    ``batch`` is a (materialised) :class:`~repro.storage.codec.TupleBatch`;
    the inverse is :func:`decode_block_columnar`, which round-trips to
    element-wise equality with the row codec's scalar reference.
    """
    if schema is not None and bool(schema.sparse) != batch.is_sparse:
        raise ValueError("schema sparsity does not match batch")
    chunks: list[tuple[int, int, int, int, bytes, int]] = []

    def add(col: int, enc: int, width: int, delta: int, payload: bytes, n_values: int):
        chunks.append((col, enc, width, delta, payload, n_values))

    enc, width, delta, payload = _encode_ints(batch.ids)
    add(COL_IDS, enc, width, delta, payload, batch.ids.size)
    add(COL_LABELS, ENC_F64, 8, 0, batch.labels.astype("<f8").tobytes(), batch.labels.size)
    if batch.is_sparse:
        enc, width, delta, payload = _encode_ints(batch.indptr)
        add(COL_INDPTR, enc, width, delta, payload, batch.indptr.size)
        enc, width, delta, payload = _encode_ints(batch.indices)
        add(COL_INDICES, enc, width, delta, payload, batch.indices.size)
        add(COL_VALUES, ENC_F64, 8, 0, batch.values.astype("<f8").tobytes(), batch.values.size)
    else:
        dense = np.ascontiguousarray(batch.dense, dtype="<f8")
        add(COL_DENSE, ENC_F64, 8, 0, dense.tobytes(), dense.size)

    dir_size = _HEADER.size + _DIR_ENTRY.size * len(chunks)
    out = bytearray()
    out += _HEADER.pack(
        COLUMNAR_MAGIC,
        COLUMNAR_VERSION,
        len(batch),
        batch.n_features,
        len(chunks),
        _FLAG_SPARSE if batch.is_sparse else 0,
    )
    offset = dir_size
    entries = []
    body = bytearray()
    for col, enc, width, delta, payload, n_values in chunks:
        pad = (-offset) % _ALIGN
        body += b"\x00" * pad
        offset += pad
        entries.append(
            _DIR_ENTRY.pack(col, enc, width, delta, offset, len(payload), n_values, zlib.crc32(payload))
        )
        body += payload
        offset += len(payload)
    for entry in entries:
        out += entry
    out += body
    return bytes(out)


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------

def read_columnar_header(
    buffer, offset: int = 0
) -> tuple[int, int, bool, list[ChunkRef]]:
    """Parse a columnar payload's header + directory.

    Returns ``(n_tuples, n_features, sparse, chunk_refs)``; raises
    ``ValueError`` for a non-columnar buffer (callers use this to sniff the
    layout of a stored page image).
    """
    if len(buffer) - offset < _HEADER.size:
        raise ValueError("buffer too short for a columnar block header")
    magic, version, n_tuples, n_features, n_cols, flags = _HEADER.unpack_from(buffer, offset)
    if magic != COLUMNAR_MAGIC:
        raise ValueError(f"not a columnar block (magic {magic!r})")
    if version != COLUMNAR_VERSION:
        raise ValueError(f"unsupported columnar version {version}")
    refs = [
        ChunkRef(*_DIR_ENTRY.unpack_from(buffer, offset + _HEADER.size + i * _DIR_ENTRY.size))
        for i in range(n_cols)
    ]
    return int(n_tuples), int(n_features), bool(flags & _FLAG_SPARSE), refs


def directory_size(n_cols: int) -> int:
    """Bytes occupied by the header + directory of an ``n_cols`` block."""
    return _HEADER.size + _DIR_ENTRY.size * n_cols


class LazyTupleBatch:
    """A columnar block whose column arrays materialise on first access.

    Mirrors the :class:`~repro.storage.codec.TupleBatch` read interface
    (``ids``/``labels``/``dense``/``indptr``/``indices``/``values``,
    ``row``, ``to_tuples``, ``features_matrix``) but decodes nothing up
    front: each property decodes its chunk on first touch — a zero-copy
    ``np.frombuffer`` view for raw float64/int64 chunks — and caches the
    array.  :attr:`decoded_nbytes` reports only the materialised bytes, so
    the buffer pool can charge real memory, not potential memory.

    The backing store is either one whole block buffer (``buffer`` +
    per-chunk offsets) or, after a column-pruned read, individual chunk
    buffers — absent columns raise ``KeyError`` on access.  Chunk CRCs are
    verified at materialisation time when ``verify_chunks`` is set (the
    pruned read path verifies at read time instead, before bytes are
    trusted enough to cache).

    Lazy-view lifetime rule: views alias the encoded buffer, so the buffer
    stays referenced by the batch for as long as any view may live — do not
    mutate or recycle a buffer handed to a batch.
    """

    def __init__(
        self,
        n_tuples: int,
        n_features: int,
        sparse: bool,
        sources: dict[int, tuple], # col -> (buffer, base_offset, ChunkRef)
        verify_chunks: bool = False,
    ):
        self._n = int(n_tuples)
        self.n_features = int(n_features)
        self._sparse = bool(sparse)
        self._sources = sources
        self._cache: dict[int, np.ndarray] = {}
        self.verify_chunks = bool(verify_chunks)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_block(
        cls, buffer, offset: int = 0, columns=None, verify_chunks: bool = False
    ) -> "LazyTupleBatch":
        n_tuples, n_features, sparse, refs = read_columnar_header(buffer, offset)
        if columns is not None:
            columns = set(columns)
        sources = {
            ref.col: (buffer, offset, ref)
            for ref in refs
            if columns is None or ref.col in columns
        }
        return cls(n_tuples, n_features, sparse, sources, verify_chunks=verify_chunks)

    @classmethod
    def from_chunks(
        cls,
        n_tuples: int,
        n_features: int,
        sparse: bool,
        chunks: dict[int, tuple],  # col -> (chunk_bytes, ChunkRef)
    ) -> "LazyTupleBatch":
        """Build from individually read (already CRC-verified) chunks."""
        sources = {
            col: (payload, -ref.offset, ref) for col, (payload, ref) in chunks.items()
        }
        return cls(n_tuples, n_features, sparse, sources)

    # -- core accessors -------------------------------------------------
    def _get(self, col: int) -> np.ndarray:
        cached = self._cache.get(col)
        if cached is not None:
            return cached
        try:
            buffer, base, ref = self._sources[col]
        except KeyError:
            raise KeyError(
                f"column {COLUMN_NAMES.get(col, col)!r} was pruned from this read"
            ) from None
        if self.verify_chunks and ref.length:
            got = zlib.crc32(memoryview(buffer)[base + ref.offset : base + ref.offset + ref.length])
            if got != ref.crc32:
                raise ChecksumError(
                    f"column chunk {ref.name!r}: checksum mismatch "
                    f"(got {got:#010x}, want {ref.crc32:#010x})"
                )
        array = _decode_chunk(buffer, ref, base)
        if col == COL_DENSE:
            array = array.reshape(self._n, self.n_features)
        self._cache[col] = array
        if obs.enabled():
            obs.inc("storage.columnar.chunks_decoded")
            obs.inc("storage.columnar.chunk_bytes_decoded", ref.length)
        return array

    @property
    def ids(self) -> np.ndarray:
        return self._get(COL_IDS)

    @property
    def labels(self) -> np.ndarray:
        return self._get(COL_LABELS)

    @property
    def dense(self) -> np.ndarray | None:
        return None if self._sparse else self._get(COL_DENSE)

    @property
    def indptr(self) -> np.ndarray | None:
        return self._get(COL_INDPTR) if self._sparse else None

    @property
    def indices(self) -> np.ndarray | None:
        return self._get(COL_INDICES) if self._sparse else None

    @property
    def values(self) -> np.ndarray | None:
        return self._get(COL_VALUES) if self._sparse else None

    # -- TupleBatch protocol --------------------------------------------
    @property
    def is_sparse(self) -> bool:
        return self._sparse

    def __len__(self) -> int:
        return self._n

    def row(self, i: int) -> np.ndarray | SparseRow:
        if not self._sparse:
            return self.dense[i]
        indptr = self.indptr
        lo, hi = indptr[i], indptr[i + 1]
        return SparseRow(self.indices[lo:hi], self.values[lo:hi], self.n_features)

    def to_tuples(self) -> list[TrainingTuple]:
        ids = self.ids.tolist()
        labels = self.labels.tolist()
        return [TrainingTuple(ids[i], labels[i], self.row(i)) for i in range(self._n)]

    def features_matrix(self) -> np.ndarray | SparseMatrix:
        if not self._sparse:
            return self.dense
        return SparseMatrix(
            self.indptr, self.indices, self.values, (self._n, self.n_features)
        )

    # Row moves decode only the chunks they touch and return eager batches.
    slice = TupleBatch.slice
    take = TupleBatch.take

    # -- introspection ---------------------------------------------------
    @property
    def available_columns(self) -> frozenset[str]:
        return frozenset(COLUMN_NAMES[c] for c in self._sources)

    @property
    def materialized_columns(self) -> frozenset[str]:
        return frozenset(COLUMN_NAMES[c] for c in self._cache)

    @property
    def decoded_nbytes(self) -> int:
        """Bytes of materialised column arrays (real memory, not potential)."""
        return sum(a.nbytes for a in self._cache.values())

    def materialize(self) -> TupleBatch:
        """Decode every available column into an eager ``TupleBatch``."""
        if self._sparse:
            return TupleBatch(
                ids=np.asarray(self.ids),
                labels=np.asarray(self.labels),
                n_features=self.n_features,
                indptr=np.asarray(self.indptr),
                indices=np.asarray(self.indices),
                values=np.asarray(self.values),
            )
        return TupleBatch(
            ids=np.asarray(self.ids),
            labels=np.asarray(self.labels),
            n_features=self.n_features,
            dense=np.asarray(self.dense),
        )


def decode_block_columnar(
    buffer,
    schema: TupleSchema | None = None,
    offset: int = 0,
    columns=None,
    verify_chunks: bool = False,
) -> LazyTupleBatch:
    """Decode one columnar block payload into a :class:`LazyTupleBatch`.

    Nothing is materialised here beyond the 16-byte header and the column
    directory; ``columns`` (an iterable of directory codes or names)
    restricts which chunks the batch may materialise at all.  ``schema`` is
    accepted for signature parity with the row codec and cross-checked when
    given.
    """
    if columns is not None:
        columns = {
            c if isinstance(c, int) else _NAME_TO_COL[c] for c in columns
        }
    batch = LazyTupleBatch.from_block(
        buffer, offset=offset, columns=columns, verify_chunks=verify_chunks
    )
    if schema is not None:
        if batch.n_features != schema.n_features or batch.is_sparse != bool(schema.sparse):
            raise ValueError(
                f"columnar block is ({batch.n_features}, sparse={batch.is_sparse}); "
                f"schema says ({schema.n_features}, sparse={schema.sparse})"
            )
    if obs.enabled():
        obs.inc("storage.columnar.blocks_decoded")
    return batch
