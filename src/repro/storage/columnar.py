"""Columnar compressed page format with lazy zero-copy views.

The row codec (:mod:`repro.storage.codec`) interleaves every tuple's id,
label, and features, so a reader pays the full decode even for columns it
never touches.  This module is the columnar tier of the heap
(``HeapFile(layout="columnar")``): each heap page's payload is one block
stored as *per-column chunks* behind a binary column directory, so readers
decode exactly the columns a consumer touches.  Block files stay row
records (:mod:`repro.storage.blockfile`).

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

:func:`decode_block_columnar` returns a :class:`LazyTupleBatch` after one
``unpack_from`` of the header + directory; each column materialises on first
touch and is cached.  A page read on a buffer-pool miss is not even parsed:
one compiled call checks its header (:meth:`LazyTupleBatch.of_checked_block`).
A block read with a miss is a :class:`CheckedRun`: one compiled pass checks
every page's chunks and nothing is decoded until a reader needs the rows; a
TupleShuffle fill of such blocks is one compiled copy from the pages' bytes
into the fill (:mod:`repro._native`).  Any other run decodes column by
column in Python, the reference (:func:`concat_pages`).  Per-chunk CRC32s
let a reader (``verify_chunks``) check each chunk on first touch.
"""

from __future__ import annotations

import struct
import zlib
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .. import _native, obs
from .._native import F64, I64
from .codec import DeferredBatch, TupleBatch, TupleSchema, stack_column
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
    "CheckedRun",
    "ChunkRef",
    "LazyTupleBatch",
    "encode_block_columnar",
    "decode_block_columnar",
    "read_columnar_header",
    "concat_pages",
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
_PACK_DTYPES = {w: np.dtype(f"<u{w}") for w in (1, 2, 4, 8)}
_RAW_DTYPES = {ENC_F64: np.dtype("<f8"), ENC_I64: np.dtype("<i8")}
_N_COLS_AT = 14  # byte offset of ``n_cols`` in the header


class ChunkRef(NamedTuple):
    """One column chunk's directory entry, in directory field order."""

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

@lru_cache(maxsize=None)
def _directory_struct(n_cols: int) -> struct.Struct:
    """Header + an ``n_cols``-entry directory, parsed by one ``unpack_from``."""
    return struct.Struct(_HEADER.format + _DIR_ENTRY.format[1:] * n_cols)


def _read_directory(buffer) -> tuple[int, int, bool, tuple]:
    """Parse a columnar payload's header + directory in one ``unpack_from``.

    Returns ``(n_tuples, n_features, sparse, entries)``: ``entries`` is the
    flat run of directory fields, eight per chunk in :class:`ChunkRef`
    order.  Raises ``ValueError`` for a non-columnar or truncated buffer and
    for a chunk whose byte range runs past the payload.
    """
    size = len(buffer)
    if size < _HEADER.size:
        raise ValueError("buffer too short for a columnar block header")
    layout = _directory_struct(buffer[_N_COLS_AT])
    if size < layout.size:
        fields = _HEADER.unpack_from(buffer)
    else:
        fields = layout.unpack_from(buffer)
    if fields[0] != COLUMNAR_MAGIC:
        raise ValueError(f"not a columnar block (magic {fields[0]!r})")
    if fields[1] != COLUMNAR_VERSION:
        raise ValueError(f"unsupported columnar version {fields[1]}")
    if size < layout.size:
        raise ValueError(
            f"columnar directory truncated: {size} of {layout.size} header bytes"
        )
    entries = fields[6:]
    for i in range(0, len(entries), 8):
        if entries[i + 4] + entries[i + 5] > size:
            raise ValueError(
                f"column chunk {ChunkRef(*entries[i : i + 8]).name!r} runs past "
                f"the {size}-byte payload"
            )
    return fields[2], fields[3], bool(fields[5] & _FLAG_SPARSE), entries


def read_columnar_header(buffer) -> tuple[int, int, bool, list[ChunkRef]]:
    """Parse a columnar payload's header + directory.

    Returns ``(n_tuples, n_features, sparse, chunk_refs)``; raises
    ``ValueError`` for a non-columnar buffer (callers use this to sniff the
    layout of a stored page image), a truncated directory, or a chunk that
    runs past the payload.
    """
    n_tuples, n_features, sparse, entries = _read_directory(buffer)
    refs = [ChunkRef._make(entries[i : i + 8]) for i in range(0, len(entries), 8)]
    return n_tuples, n_features, sparse, refs


class LazyTupleBatch:
    """A columnar block whose column arrays materialise on first access.

    Mirrors the :class:`~repro.storage.codec.TupleBatch` read interface but
    decodes nothing up front: each column decodes its chunk on first touch —
    a zero-copy ``np.frombuffer`` view for raw float64/int64 chunks — and
    caches the array (:attr:`decoded_nbytes` counts only those).  A batch is
    built from its whole-block buffer and parsed directory — or, on a pool
    miss, from its buffer and a checked header, the directory parsed on first
    touch; a single-page reader checks the one chunk it touches (``_store``).
    A run of pages decodes through :func:`concat_pages` and caches no array
    here.  Chunk CRCs are verified on first read when ``verify_chunks`` is set.

    Lazy-view lifetime rule: views alias the encoded buffer, so the buffer
    stays referenced by the batch for as long as any view may live — do not
    mutate or recycle a buffer handed to a batch.
    """

    def __init__(
        self,
        n_tuples: int,
        n_features: int,
        sparse: bool,
        entries: tuple | None,  # directory fields, eight per chunk (ChunkRef order)
        buffer,  # the whole block the directory offsets point into
        verify_chunks: bool = False,
    ):
        self._n = n_tuples
        self.n_features = n_features
        self.is_sparse = sparse
        if entries is not None:  # else parsed from ``_block`` on first touch
            self._entries = entries
            self._cols = entries[::8]
            self._view = memoryview(buffer)
        self._cache: dict[int, np.ndarray] = {}
        self.verify_chunks = verify_chunks
        # a whole block the compiled run decode may read
        self._block = buffer if type(buffer) is bytes and not verify_chunks else None

    # -- construction ---------------------------------------------------
    @classmethod
    def of_checked_block(cls, block: bytes, schema: TupleSchema) -> "LazyTupleBatch | None":
        """A whole-block payload of ``schema`` whose header the compiled check
        accepts, with nothing parsed: its directory is read on first touch by
        a single-page consumer, and a run of such pages goes to the compiled
        decode as its bytes.  ``None`` when the check cannot run or refuses
        the block, which :func:`decode_block_columnar` then parses (and
        raises for)."""
        if _LIB is None or type(block) is not bytes:
            return None
        n_tuples = _LIB.columnar_header(block, len(block), schema.sparse, schema.n_features)
        if n_tuples < 0:
            return None
        return cls(n_tuples, schema.n_features, bool(schema.sparse), None, block)

    @cached_property
    def _entries(self) -> tuple:
        return _read_directory(self._block)[3]

    @cached_property
    def _cols(self) -> tuple:
        return self._entries[::8]

    @cached_property
    def _view(self) -> memoryview:
        return memoryview(self._block)

    # -- core accessors -------------------------------------------------
    def _store(self, col: int) -> tuple:
        """Column ``col``'s chunk on a single-page read, checked
        (:func:`_checked_chunks`): ``(stored dtype, delta, values, bytes)``."""
        (dtype, delta, _width), (span,), _counts, nbytes = _checked_chunks((self,), col)
        return dtype, delta, span, nbytes

    def _decode(self, col: int) -> np.ndarray:
        """Column ``col`` of this page, uncached: a zero-copy view of a raw
        chunk, a widened (and cumsummed, when delta-coded) copy of a packed one."""
        dtype, delta, span, length = self._store(col)
        array = np.frombuffer(span, dtype)
        if dtype.kind == "u":  # packed
            array = array.astype(np.int64)
            if delta:
                np.add.accumulate(array, out=array)
        if col == COL_DENSE:
            array = array.reshape(self._n, self.n_features)
        _count_decoded(1, length)
        return array

    def _get(self, col: int) -> np.ndarray:
        cached = self._cache.get(col)
        if cached is None:
            cached = self._cache[col] = self._decode(col)
        return cached

    ids = property(lambda self: self._get(COL_IDS))
    labels = property(lambda self: self._get(COL_LABELS))
    dense = property(lambda self: None if self.is_sparse else self._get(COL_DENSE))
    indptr = property(lambda self: self._get(COL_INDPTR) if self.is_sparse else None)
    indices = property(lambda self: self._get(COL_INDICES) if self.is_sparse else None)
    values = property(lambda self: self._get(COL_VALUES) if self.is_sparse else None)

    def __len__(self) -> int:
        return self._n

    # Reads and row moves decode only the chunks they touch; the moves
    # return eager batches.
    row = TupleBatch.row
    features_matrix = TupleBatch.features_matrix
    slice = TupleBatch.slice
    take = TupleBatch.take

    # -- introspection ---------------------------------------------------
    @property
    def materialized_columns(self) -> frozenset[str]:
        return frozenset(COLUMN_NAMES[c] for c in self._cache)

    @property
    def decoded_nbytes(self) -> int:
        """Bytes of materialised column arrays (real memory, not potential)."""
        return sum(a.nbytes for a in self._cache.values())

    def materialize(self) -> TupleBatch:
        """Decode every column into an eager ``TupleBatch``."""
        return TupleBatch(
            self.ids, self.labels, self.n_features, dense=self.dense,
            indptr=self.indptr, indices=self.indices, values=self.values,
        )


_RUN_COLUMNS = {
    False: (COL_IDS, COL_LABELS, COL_DENSE),
    True: (COL_IDS, COL_LABELS, COL_INDPTR, COL_INDICES, COL_VALUES),
}
_FLOAT_COLUMNS = frozenset({COL_LABELS, COL_DENSE, COL_VALUES})


class CheckedRun(DeferredBatch):
    """Rows ``[lo, hi)`` of a block of columnar pages the compiled check
    accepted, undecoded: ``BufferPool.get_run``'s block read with a miss.

    It holds the pages, their bytes' addresses (``spans``) and the check's
    column lengths (``plan``).  ``TupleBatch.concat`` of such runs end to
    end (a TupleShuffle fill) copies their rows from the pages' bytes in one
    compiled pass (:func:`_copy_parts`); any other reader of a column
    decodes the block once, on first touch.
    """

    def __init__(self, pages, spans, plan, lo=0, hi=None, whole=None):
        self.pages, self.spans, self.plan = pages, spans, plan
        self.n_block = int(plan[COL_IDS])  # the block's rows
        self.lo, self.hi = lo, self.n_block if hi is None else hi
        self.whole = whole  # the block's full run, or None for this one
        self.n_features = pages[0].n_features
        self.is_sparse = pages[0].is_sparse

    def __len__(self) -> int:
        return self.hi - self.lo

    def slice(self, lo: int, hi: int) -> "CheckedRun":
        whole = self if self.whole is None else self.whole
        return CheckedRun(self.pages, self.spans, self.plan, self.lo + lo, self.lo + hi, whole)

    @cached_property
    def rows(self) -> TupleBatch:
        """The rows decoded: the block once for all its slices."""
        if self.whole is not None:
            return self.whole.rows.slice(self.lo, self.hi)
        return _copy_parts([self]) or concat_pages(self.pages)


def checked_run(pages: Sequence) -> CheckedRun | None:
    """A block read with a miss as a :class:`CheckedRun`, checked by one
    compiled pass; ``None`` (nothing counted) when the library is off, a
    page is not an untouched whole lazy block, or the check refuses the run
    (its reference decode then raises)."""
    first = pages[0]
    checked = None if _LIB is None else _check(_LIB, pages, first.is_sparse, first.n_features)
    return None if checked is None else CheckedRun(pages, *checked)


def concat_pages(pages: Sequence) -> TupleBatch:
    """``TupleBatch.concat`` of a run holding lazy pages or checked runs,
    every column decoded once for the whole run.

    A run of whole-block lazy pages (nothing materialised, no
    ``verify_chunks``) is checked as one :class:`CheckedRun` first, and
    checked runs end to end are one compiled copy (:func:`_copy_parts`).
    Any other run, and any run the library refuses (a chunk the check
    rejects, an unusual encoding), goes column by column through
    :func:`_decode_run` — the reference, which the compiled copy equals bit
    for bit and which raises every error.
    """
    run = None if type(pages[0]) is CheckedRun else checked_run(pages)
    batch = _copy_parts(pages if run is None else [run])
    if batch is None:
        arrays = [_decode_run(pages, COLUMN_NAMES[col]) for col in _RUN_COLUMNS[pages[0].is_sparse]]
        batch = _run_batch(arrays, pages[0])
    return batch


def _copy_parts(parts: Sequence) -> TupleBatch | None:
    """Checked runs that sit end to end — the first a block's tail, the last
    a block's head, the rest whole blocks — concatenated by one compiled
    copy of their blocks into the arrays, the edge blocks' other rows then
    sliced off.  ``None`` for any other run, or without the library."""
    first, last = parts[0], parts[-1]
    if (
        _LIB is None
        or not all(type(part) is CheckedRun for part in parts)
        or first.hi != first.n_block
        or last.lo != 0
        or not all(part.lo == 0 and part.hi == part.n_block for part in parts[1:-1])
    ):
        return None
    spans = np.concatenate([part.spans for part in parts])
    plan = np.add.reduce([part.plan for part in parts])
    plan[COL_INDPTR] -= len(parts) - 1  # one leading 0, not one a block
    arrays = _copy(_LIB, spans, plan, first.is_sparse, first.n_features)
    if arrays is None:
        return None
    run = _run_batch(arrays, first)
    lo, hi = first.lo, len(run) - (last.n_block - last.hi)
    return run if (lo, hi) == (0, len(run)) else run.slice(lo, hi)


def _run_batch(arrays: list, like) -> TupleBatch:
    """A run's columns, in :data:`_RUN_COLUMNS` order, as a batch of ``like``'s schema."""
    ids, labels, *features = arrays
    names = (COLUMN_NAMES[col] for col in _RUN_COLUMNS[like.is_sparse][2:])
    return TupleBatch(ids, labels, like.n_features, **dict(zip(names, features)))


def _compiled_run(lib, pages: Sequence, sparse: bool, n_features: int) -> list | None:
    """The run's columns in :data:`_RUN_COLUMNS` order from the compiled
    decode; ``None`` (nothing counted) when a page is not a whole lazy block
    or the library refuses the run."""
    checked = _check(lib, pages, sparse, n_features)
    return None if checked is None else _copy(lib, *checked, sparse, n_features)


def _check(lib, pages: Sequence, sparse: bool, n_features: int) -> tuple | None:
    """The compiled check pass over a run of untouched whole-block lazy
    pages: ``(spans, plan)``, each page's block address and size (the pages
    keep the blocks alive) and each column's length (``plan[0]`` the chunk
    bytes); ``None`` for any other page, or where the check refuses."""
    spans = []
    for page in pages:
        block = getattr(page, "_block", None)  # an eager batch has none
        if block is None or page._cache:
            return None
        spans += (_native.bytes_addr(block), len(block))
    spans, plan = np.array(spans, dtype=np.int64), np.zeros(COL_VALUES + 1, dtype=np.int64)
    addr = _native.addr
    if lib.columnar_run(addr(spans), len(pages), sparse, n_features, addr(plan), None) != 0:
        return None
    return spans, plan


def _copy(lib, spans: np.ndarray, plan: np.ndarray, sparse: bool, n_features: int) -> list | None:
    """The compiled copy pass of checked pages into arrays of ``plan``'s lengths."""
    cols, lengths, addr = _RUN_COLUMNS[sparse], plan.tolist(), _native.addr
    arrays = [np.empty(lengths[col], F64 if col in _FLOAT_COLUMNS else I64) for col in cols]
    outs = np.zeros(COL_VALUES + 1, dtype=np.int64)
    outs[list(cols)] = [addr(array) for array in arrays]
    k = spans.size // 2
    if lib.columnar_run(addr(spans), k, sparse, n_features, addr(plan), addr(outs)) != 0:
        return None
    _count_decoded(k * len(cols), lengths[0])
    if not sparse:
        arrays[2] = arrays[2].reshape(-1, n_features)
    return arrays


def _decode_run(pages: Sequence, name: str) -> np.ndarray:
    """Column ``name`` of a run of pages, some of them lazy, as one array.

    Equal to :func:`~repro.storage.codec.stack_column` over every page's
    decoded column.  A run whose pages all hold the column materialised
    stacks those arrays.  A run of lazy pages is checked in one pass over
    their directory entries (:func:`_checked_chunks`); when its non-empty
    chunks share one kind it decodes in one go: one ``bytearray`` join of
    the stored values, one ``frombuffer`` (+ one widen); ``indptr`` one
    cumsum of the stored row lengths, delta-coded ints one cumsum restarted
    per page.  Any other run (mixed packed widths, say) stacks its pages'
    one-page runs.  Nothing is cached on the pages.
    """
    col = _NAME_TO_COL[name]
    try:
        if col in pages[0]._cache and all(col in page._cache for page in pages):
            return stack_column([page._cache[col] for page in pages], name)
        kind, spans, counts, nbytes = _checked_chunks(pages, col)
    except AttributeError:  # an eager batch in the run
        return stack_column([_page_column(page, col, name) for page in pages], name)
    is_indptr = col == COL_INDPTR
    if kind is None or (is_indptr and not kind[1]):
        if len(pages) == 1:  # an indptr stored without deltas: as the page decodes it
            return pages[0]._decode(col)
        return stack_column([_page_column(page, col, name) for page in pages], name)
    dtype, delta, width = kind
    _count_decoded(len(spans), nbytes)
    if is_indptr:  # the stored row lengths, after each page's leading 0
        spans = [span[dtype.itemsize :] for span in spans]
    out = np.frombuffer(bytearray().join(spans), dtype)
    if dtype.kind == "u":  # packed
        if dtype.itemsize == 8:  # u8 wraps to int64, as ``astype`` does
            out = out.view(np.int64)
        if is_indptr:
            lengths = out
            out = np.zeros(lengths.size + 1, dtype=np.int64)
            np.add.accumulate(lengths, dtype=np.int64, out=out[1:])
        else:
            out = out.astype(np.int64, copy=False)  # writable: it reads a bytearray
            if delta:
                # A page's first stored value is absolute: less the previous
                # page's total, one cumsum restarts at every page.
                at = accumulate(counts, initial=0)
                starts = np.array([start for start, n in zip(at, counts) if n])
                if starts.size > 1:
                    out[starts[1:]] -= np.add.reduceat(out, starts)[:-1]
                np.add.accumulate(out, out=out)  # a cumsum, without its ``out=`` overhead
    if col == COL_DENSE:
        out = out.reshape(-1, width)
    return out


def _checked_chunks(pages: Sequence, col: int) -> tuple:
    """Column ``col``'s chunk on each lazy page, checked in one pass over the
    pages' directory entries: ``(kind, spans, counts, chunk bytes)``.

    A chunk's stored values must lie inside its byte range (a ``memoryview``
    slice would truncate them silently), ``n x d`` of them for a dense chunk,
    and with ``verify_chunks`` the range must match its CRC32.  ``kind`` is
    what :func:`_decode_run` needs equal across a run's non-empty chunks:
    ``(stored dtype, delta flag, dense width)``, a one-value packed chunk
    counting as delta-coded (it decodes the same either way).  It is
    ``None`` when they disagree, the last chunk's own when all are empty.
    """
    spans, counts = [], []
    nbytes = 0
    kind = None
    mixed = False
    dense = col == COL_DENSE
    for page in pages:
        if col not in page._cols:
            raise ValueError(f"columnar page has no {COLUMN_NAMES.get(col, col)!r} chunk")
        k = page._cols.index(col)
        entry = page._entries[8 * k : 8 * k + 8]
        _col, enc, width, delta, offset, length, n_values, crc = entry
        if enc == ENC_PACKED:
            dtype, size = _PACK_DTYPES.get(width), width
            delta = delta != 0 or n_values == 1
        else:
            dtype, size = _RAW_DTYPES.get(enc), 8
            delta = False
        if dtype is None:
            raise _chunk_error(entry, f"unknown encoding {enc} (width {width})")
        end = offset + n_values * size
        if end > offset + length:
            raise _chunk_error(entry, f"{n_values} values overrun its {length}-byte range")
        if dense and n_values != page._n * page.n_features:
            raise _chunk_error(entry, f"{n_values} values for {page._n} x {page.n_features}")
        if page.verify_chunks and length:
            got = zlib.crc32(page._view[offset : offset + length])
            if got != crc:
                raise ChecksumError(
                    f"column chunk {ChunkRef._make(entry).name!r}: checksum mismatch "
                    f"(got {got:#010x}, want {crc:#010x})"
                )
        if n_values:
            if kind is None:
                kind = (dtype, delta, page.n_features if dense else 0)
            elif dtype is not kind[0] or delta != kind[1] or (dense and page.n_features != kind[2]):
                mixed = True
        spans.append(page._view[offset:end])
        counts.append(n_values)
        nbytes += length
    if kind is None:  # every chunk empty: the last one's kind
        kind = (dtype, delta, page.n_features if dense else 0)
    return (None if mixed else kind), spans, counts, nbytes


def _page_column(page, col: int, name: str) -> np.ndarray:
    """One page's column for a page-by-page stack: an eager batch's array, a
    lazy page's cached array, or the page decoded as a one-page run."""
    if not isinstance(page, LazyTupleBatch):
        return getattr(page, name)
    cached = page._cache.get(col)
    return _decode_run((page,), name) if cached is None else cached


def _chunk_error(entry: tuple, problem: str) -> ValueError:
    return ValueError(f"column chunk {ChunkRef._make(entry).name!r}: {problem}")


def _count_decoded(n_chunks: int, nbytes: int) -> None:
    if obs.enabled():
        obs.inc("storage.columnar.chunks_decoded", n_chunks)
        obs.inc("storage.columnar.chunk_bytes_decoded", nbytes)


def decode_block_columnar(
    buffer, schema: TupleSchema | None = None, verify_chunks: bool = False
) -> LazyTupleBatch:
    """Decode one columnar block payload into a :class:`LazyTupleBatch`.

    Nothing is materialised here beyond the 16-byte header and the column
    directory.  ``schema`` is accepted for signature parity with the row
    codec and cross-checked when given.
    """
    n_tuples, n_features, sparse, entries = _read_directory(buffer)
    batch = LazyTupleBatch(n_tuples, n_features, sparse, entries, buffer, verify_chunks)
    if schema is not None:
        if batch.n_features != schema.n_features or batch.is_sparse != bool(schema.sparse):
            raise ValueError(
                f"columnar block is ({batch.n_features}, sparse={batch.is_sparse}); "
                f"schema says ({schema.n_features}, sparse={schema.sparse})"
            )
    if obs.enabled():
        obs.inc("storage.columnar.blocks_decoded")
    return batch


def _probe(lib) -> bool:
    """Does the compiled header check count each page's rows (and refuse it
    one byte short, or at another width), and the compiled run decode give
    :func:`_decode_run`'s arrays, on fixed runs?

    A sparse run (delta-coded ids, indices packed in 2 bytes on one page and
    1 on another, an empty page, a zero-nnz row) and a dense one.
    """
    cells = np.arange(24.0)
    sparse = [
        TupleBatch(
            np.array([3, 4, 9]), np.sin(cells[:3]), 600,
            indptr=np.array([0, 2, 2, 5]), indices=np.array([7, 3, 599, 2, 300]),
            values=np.cos(cells[:5]),
        ),
        TupleBatch(
            np.zeros(0, np.int64), np.zeros(0), 600,
            indptr=np.zeros(1, np.int64), indices=np.zeros(0, np.int64), values=np.zeros(0),
        ),
        TupleBatch(
            np.array([12, 250]), np.sin(cells[3:5]), 600,
            indptr=np.array([0, 3, 4]), indices=np.array([90, 1, 5, 200]),
            values=np.cos(cells[5:9]),
        ),
    ]
    dense = [
        TupleBatch(np.array([5, 1]), cells[:2], 3, dense=cells[:6].reshape(2, 3)),
        TupleBatch(np.array([8, 2, 0]), cells[2:5], 3, dense=cells[6:15].reshape(3, 3)),
    ]
    for run in (sparse, dense):
        payloads = [encode_block_columnar(b) for b in run]
        for payload, batch in zip(payloads, run):
            sparse_flag, d, size = batch.is_sparse, batch.n_features, len(payload)
            checked = lib.columnar_header(payload, size, sparse_flag, d)
            short = lib.columnar_header(payload, size - 1, sparse_flag, d)
            wide = lib.columnar_header(payload, size, sparse_flag, d + 1)
            if (checked, short, wide) != (len(batch), -1, -1):
                return False
        pages = [decode_block_columnar(payload) for payload in payloads]
        got = _compiled_run(lib, pages, run[0].is_sparse, run[0].n_features)
        want = [_decode_run(pages, COLUMN_NAMES[col]) for col in _RUN_COLUMNS[run[0].is_sparse]]
        if got is None or not all(
            a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            for a, b in zip(got, want)
        ):
            return False
    return True


#: The compiled header check and run decode, when the library loaded and its
#: probe passed.
_LIB = _native.LIB if _native.LIB is not None and _probe(_native.LIB) else None
