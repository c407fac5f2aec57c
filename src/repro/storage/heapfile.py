"""Heap files: paged storage for a dataset, plus page-run blocks.

A :class:`HeapFile` materialises a :class:`~repro.data.dataset.Dataset` into
fixed-size pages of encoded tuples, the way the table would sit on disk in
PostgreSQL.  CorgiPile's ``BlockShuffle`` operator treats a *block* as a run
of contiguous pages (``block_bytes / page_bytes`` pages per block); the
:meth:`HeapFile.block_pages` helper reproduces that grouping.

Optionally tuples are compressed per tuple (``compress=True``), standing in
for PostgreSQL's TOAST compression of wide feature arrays — compressed
tables are smaller on disk but cost extra CPU to decode, which is exactly
the effect the paper observes on the epsilon/yfcc datasets (Section 7.3.4).
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence

import numpy as np

from .. import obs
from ..data.dataset import Dataset
from ..data.sparse import SparseMatrix, SparseRow
from .blockfile import dataset_block_batch
from .codec import (
    TrainingTuple,
    TupleBatch,
    TupleSchema,
    decode_page,
    decode_tuple,
    encode_rows,
    encode_tuple,
    encoded_row_bounds,
)
from .columnar import LazyTupleBatch, decode_block_columnar, encode_block_columnar
from .fsm import FreeSpaceMap
from .page import DEFAULT_PAGE_BYTES, Page
from .retry import ChecksumError
from .rid import RID, SLOT_BITS

__all__ = ["HeapFile", "ColumnarMutationError"]

#: Bytes ``from_dataset`` encodes per call: the bulk loader's transient
#: buffers are this, not the table.  Measured on 20 000 x 28 dense rows:
#: 1 MiB runs load no faster than 128 KiB ones and leave the process 3 MB
#: of peak RSS above the per-tuple loader's; at 128 KiB the peak is equal.
_LOAD_RUN_BYTES = 1 << 17


class ColumnarMutationError(TypeError):
    """DML on a columnar-layout heap.

    Columnar pages pack many rows into one immutable per-column payload, so
    slot-level ``INSERT``/``UPDATE``/``DELETE`` has no meaning there; callers
    must use a row-layout table (or rebuild the columnar table).
    """


class HeapFile:
    """A paged, optionally compressed, materialisation of a dataset.

    ``layout="columnar"`` stores each page as one columnar block payload
    (:mod:`repro.storage.columnar`) instead of row-major tuple slots:
    appends buffer rows until roughly ``page_bytes`` worth accumulate, then
    flush as a single per-column-chunked payload.  Page reads come back as
    lazy zero-copy batches; ``compress`` is row-layout only (the columnar
    encodings subsume it).
    """

    def __init__(
        self,
        schema: TupleSchema,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        compress: bool = False,
        layout: str = "row",
    ):
        if layout not in ("row", "columnar"):
            raise ValueError(f"unknown heap layout {layout!r}")
        if compress and layout == "columnar":
            raise ValueError("compress applies to the row layout only")
        self.schema = schema
        self.page_bytes = page_bytes
        self.compress = compress
        self.layout = layout
        self.pages: list[Page] = []
        # The position directory: position -> packed RID (``page_id <<
        # SLOT_BITS | slot``), ascending because heap order is page-major,
        # slot-ascending.  Appends add runs that the next reader joins on.
        self._rids = np.empty(0, dtype=np.int64)
        self._rid_runs: list[np.ndarray] = []
        # Maintained by every write, so none of them is a walk over pages.
        self._n_live = 0  # tuples in pages
        self._payload_bytes = 0  # sum of page.used_bytes
        self._total_bytes = 0  # sum of page.capacity
        # Columnar append buffer: rows not yet flushed into a page.
        self._pending: list[tuple[int, float, object]] = []
        self._pending_bytes = 0
        # DML marks the position directory stale; it is rebuilt page by page
        # on the next positional access.
        self._refs_dirty = False
        # Free space map for INSERT's first fit, built by the first insert
        # and kept current by every row-layout write after it.
        self._fsm: FreeSpaceMap | None = None
        self.decode_count = 0  # tuples decoded (CPU accounting)
        # Verify every page read against the page's CRC32 before decoding.
        # Off by default (the in-memory heap cannot tear); the fault plane's
        # FaultyHeapFile turns it on so torn reads are caught, not decoded.
        self.verify_checksums = False

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        compress: bool = False,
        layout: str = "row",
    ) -> "HeapFile":
        """Bulk-load ``dataset``: the heap ``append`` would build tuple by
        tuple — same page images, same position directory — from one
        :func:`~repro.storage.codec.encode_rows` call per run of rows."""
        schema = TupleSchema(dataset.n_features, sparse=dataset.is_sparse)
        heap = cls(schema, page_bytes=page_bytes, compress=compress, layout=layout)
        if layout == "columnar":
            heap._load_columnar(dataset)
        else:
            heap._load_rows(dataset)
        return heap

    def _load_rows(self, dataset: Dataset) -> None:
        """Encode ``_LOAD_RUN_BYTES`` worth of rows at a time, cut each run
        into slot payloads and pack them with ``append``'s greedy rule."""
        n = dataset.n_tuples
        row_bytes = self.schema.dense_tuple_bytes()
        if self.schema.sparse and n:
            row_bytes = self.schema.sparse_tuple_bytes(-(-dataset.X.nnz // n))
        run = max(1, _LOAD_RUN_BYTES // row_bytes)
        for lo in range(0, n, run):
            batch = dataset_block_batch(dataset, lo, min(lo + run, n))
            buffer = encode_rows(batch)
            ends = encoded_row_bounds(batch)
            cuts = ends.tolist()
            payloads = [buffer[a:b] for a, b in zip(cuts, cuts[1:])]
            if self.compress:
                payloads = [self._compressed(p) for p in payloads]
                ends = np.cumsum([0, *map(len, payloads)])
            self._append_payloads(payloads, ends[1:])

    def _append_payloads(self, payloads: list[bytes], ends: np.ndarray) -> None:
        """:meth:`append` for a run of stored payloads (``ends``: their
        running byte total): the tail page takes the longest prefix that
        ``fits()``, then a fresh page does."""
        i, n = 0, len(payloads)
        while i < n:
            size = len(payloads[i])
            if not self.pages or not self.pages[-1].fits(size):
                self._new_page(size)
            page = self.pages[-1]
            used = page.used_bytes
            room = int(ends[i]) - size + page.free_bytes
            j = int(np.searchsorted(ends, room, side="right"))
            first = page.extend(payloads[i:j])
            self._note_write(page, used)
            self._rid_runs.append(
                (page.page_id << SLOT_BITS) + np.arange(first, first + j - i, dtype=np.int64)
            )
            i = j
        self._n_live += n

    def _load_columnar(self, dataset: Dataset) -> None:
        """One columnar page per run of rows whose ``append`` size estimates
        first reach ``page_bytes`` — where the pending buffer would flush."""
        n = dataset.n_tuples
        if self.schema.sparse:
            estimates = 16 + 16 * np.diff(dataset.X.indptr)
        else:
            estimates = np.full(n, 16 + 8 * self.schema.n_features, dtype=np.int64)
        ends = np.cumsum(estimates)
        lo = 0
        while lo < n:
            flushed = (int(ends[lo - 1]) if lo else 0) + self.page_bytes
            hi = min(n, int(np.searchsorted(ends, flushed, side="left")) + 1)
            self._append_columnar_page(dataset_block_batch(dataset, lo, hi))
            lo = hi

    def append(self, tuple_id: int, label: float, features) -> None:
        if self.layout == "columnar":
            if isinstance(features, SparseRow):
                est = 16 + 16 * features.indices.size
            else:
                est = 16 + 8 * len(features)
            self._pending.append((int(tuple_id), float(label), features))
            self._pending_bytes += est
            if self._pending_bytes >= self.page_bytes:
                self.flush()
            return
        payload = self.encode_payload(tuple_id, label, features)
        if not self.pages or not self.pages[-1].fits(len(payload)):
            self._new_page(len(payload))
        page = self.pages[-1]
        used = page.used_bytes
        slot = page.append(payload)
        self._note_write(page, used)
        self._rid_runs.append(np.array([RID(page.page_id, slot).packed()], dtype=np.int64))
        self._n_live += 1

    def flush(self) -> None:
        """Flush buffered columnar rows into one single-slot page (no-op for row)."""
        if self.layout != "columnar" or not self._pending:
            return
        ids = np.array([r[0] for r in self._pending], dtype=np.int64)
        labels = np.array([r[1] for r in self._pending], dtype=np.float64)
        if self.schema.sparse:
            rows = [r[2] for r in self._pending]
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([r.indices.size for r in rows], out=indptr[1:])
            batch = TupleBatch(
                ids=ids,
                labels=labels,
                n_features=self.schema.n_features,
                indptr=indptr,
                indices=np.concatenate([r.indices for r in rows]),
                values=np.concatenate([r.values for r in rows]),
            )
        else:
            batch = TupleBatch(
                ids=ids,
                labels=labels,
                n_features=self.schema.n_features,
                dense=np.asarray([np.asarray(r[2], dtype=np.float64) for r in self._pending]),
            )
        self._pending.clear()
        self._pending_bytes = 0
        self._append_columnar_page(batch)

    def _append_columnar_page(self, batch: TupleBatch) -> None:
        """Store ``batch`` as one single-slot columnar page."""
        payload = encode_block_columnar(batch, self.schema)
        page = self._new_page(len(payload))
        page.append(payload)
        self._note_write(page, 0)
        # A columnar page's rows share its one stored slot: a RID's slot is
        # the row's index in the page's batch.
        self._rid_runs.append((page.page_id << SLOT_BITS) + np.arange(len(batch), dtype=np.int64))
        self._n_live += len(batch)

    # ------------------------------------------------------------------
    # DML: slot-level mutation of row-layout heaps.
    def encode_payload(self, tuple_id: int, label: float, features) -> bytes:
        """The exact stored byte form of one tuple (compression included)."""
        payload = encode_tuple(tuple_id, label, features)
        return self._compressed(payload) if self.compress else payload

    @staticmethod
    def _compressed(payload: bytes) -> bytes:
        return len(payload).to_bytes(4, "little") + zlib.compress(payload, level=1)

    def _require_mutable(self) -> None:
        if self.layout != "row":
            raise ColumnarMutationError(
                f"cannot mutate a {self.layout!r}-layout heap: slot-level DML "
                "is only supported on row-layout tables"
            )

    def _new_page(self, n_bytes: int) -> Page:
        """Append an empty page that holds at least ``n_bytes``."""
        page = Page(len(self.pages), capacity=max(self.page_bytes, n_bytes))
        self.pages.append(page)
        self._total_bytes += page.capacity
        return page

    def _note_write(self, page: Page, used_before: int) -> None:
        """Keep the byte total and the free space map current after a write
        to ``page`` (``used_before``: its ``used_bytes`` before the write,
        which may also have compacted it)."""
        self._payload_bytes += page.used_bytes - used_before
        if self._fsm is not None:
            self._fsm.set(page.page_id, page.capacity - page.live_bytes)

    def _first_fit(self, n_bytes: int) -> Page | None:
        """The lowest page that ``can_fit(n_bytes)``, via the free space map."""
        if self._fsm is None or self._fsm.n_pages != len(self.pages):
            self._fsm = FreeSpaceMap([p.capacity - p.live_bytes for p in self.pages])
        page_id = self._fsm.first_fit(n_bytes)
        return None if page_id is None else self.pages[page_id]

    def insert(self, tuple_id: int, label: float, features) -> RID:
        """Insert one tuple, reusing dead slots / free space first-fit.

        Returns the RID of the stored tuple.  Unlike :meth:`append` (bulk
        load, always fills the tail page) inserts take the first page with
        room — dead-slot reuse keeps churned tables compact — found through
        the free space map, not a scan.
        """
        self._require_mutable()
        payload = self.encode_payload(tuple_id, label, features)
        page = self._first_fit(len(payload))
        if page is None:
            page = self._new_page(len(payload))
        used = page.used_bytes
        slot = page.append(payload)
        self._note_write(page, used)
        self._n_live += 1
        self._refs_dirty = True
        return RID(page.page_id, slot)

    def delete(self, rid: RID) -> None:
        """Delete the tuple at ``rid`` (its slot goes dead, RIDs elsewhere
        are untouched)."""
        self._require_mutable()
        page = self.pages[rid.page_id]
        used = page.used_bytes
        page.delete(rid.slot)
        self._note_write(page, used)
        self._n_live -= 1
        self._refs_dirty = True

    def update(self, rid: RID, tuple_id: int, label: float, features) -> RID:
        """Rewrite the tuple at ``rid``; returns its (possibly new) RID.

        In-place when the page can hold the new version (RID preserved —
        indexes on untouched columns stay valid); otherwise the tuple moves:
        delete + first-fit insert, returning the new address.
        """
        self._require_mutable()
        payload = self.encode_payload(tuple_id, label, features)
        page = self.pages[rid.page_id]
        used = page.used_bytes
        try:
            page.replace(rid.slot, payload)
            self._note_write(page, used)
            self._refs_dirty = True
            return rid
        except ValueError:
            self.delete(rid)
            return self.insert(tuple_id, label, features)

    def directory(self) -> np.ndarray:
        """The position directory: every live tuple's packed RID, in heap
        order (so ascending).  After DML it is rebuilt page by page."""
        self.flush()
        if self._refs_dirty:
            obs.inc("storage.heapfile.directory_rebuilds")
            runs = [(p.page_id << SLOT_BITS) + self.live_slots(p.page_id) for p in self.pages]
            self._rids = np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
            self._rid_runs.clear()
            self._refs_dirty = False
        elif self._rid_runs:
            self._rids = np.concatenate([self._rids, *self._rid_runs])
            self._rid_runs.clear()
        return self._rids

    def rids_at(self, positions) -> np.ndarray:
        """The packed RIDs of the tuples at heap ``positions``."""
        return self.directory()[np.asarray(positions, dtype=np.int64)]

    def positions_of(self, rids) -> np.ndarray:
        """Inverse of :meth:`rids_at`; raises ``KeyError`` for a dead RID."""
        directory = self.directory()
        rids = np.asarray(rids, dtype=np.int64)
        positions = np.searchsorted(directory, rids)
        if rids.size and (
            not directory.size
            or not np.array_equal(directory[np.minimum(positions, directory.size - 1)], rids)
        ):
            raise KeyError(RID.from_packed(np.setdiff1d(rids, directory)[0]))
        return positions

    def rid_of(self, position: int) -> RID:
        """The RID of the tuple at heap position ``position`` (scan order)."""
        return RID.from_packed(self.directory()[position])

    def position_of(self, rid: RID) -> int:
        """Inverse of :meth:`rid_of`; raises ``KeyError`` for dead RIDs."""
        return int(self.positions_of([RID(*rid).packed()])[0])

    def live_slots(self, page_id: int) -> np.ndarray:
        """The live slot ids of row-layout page ``page_id``, ascending."""
        page = self.pages[page_id]
        if page.n_tuples == page.n_slots:
            return np.arange(page.n_slots, dtype=np.int64)
        return np.asarray(page.live_slots(), dtype=np.int64)

    def slot_rows(self, page_id: int, slots) -> np.ndarray:
        """The row of each of ``slots`` in page ``page_id``'s decoded batch
        (:meth:`batch_slots` inverted); raises ``KeyError`` on a dead slot."""
        slots = np.asarray(slots, dtype=np.int64)
        if self.layout == "columnar":
            return slots
        live = self.live_slots(page_id)
        rows = np.searchsorted(live, slots)
        if rows.size and (int(rows.max()) >= live.size or not np.array_equal(live[rows], slots)):
            raise KeyError(f"page {page_id}: a dead slot among {slots.tolist()}")
        return rows

    def batch_slots(self, page_id: int, n_rows: int) -> Sequence[int]:
        """The RID slot of each row of page ``page_id``'s decoded batch, in
        batch order: the page's live slots, or ``range(n_rows)`` on a
        columnar page, whose rows share one stored slot."""
        if self.layout == "columnar":
            return range(n_rows)
        return self.pages[page_id].live_slots()

    def slot_row_map(self, page_id: int) -> dict[int, int]:
        """slot id → row index within the page's decoded batch (live order)."""
        return {slot: row for row, slot in enumerate(self.pages[page_id].live_slots())}

    # ------------------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        return self._n_live + len(self._pending)

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    @property
    def total_bytes(self) -> int:
        """On-disk footprint (pages are padded to their capacity)."""
        return self._total_bytes

    @property
    def payload_bytes(self) -> int:
        return self._payload_bytes

    # ------------------------------------------------------------------
    def _uncompressed(self, payload: bytes) -> bytes:
        """The tuple bytes of one stored payload (undoes :meth:`_compressed`)."""
        if not self.compress:
            return payload
        raw = zlib.decompress(payload[4:])
        assert len(raw) == int.from_bytes(payload[:4], "little")
        return raw

    def _read_page_payloads(self, page_id: int, attempt: int = 1) -> list[bytes]:
        """The raw stored tuple payloads of one page — the *read* step.

        This is the fault-injection seam: the base heap returns the page's
        chunks verbatim; :class:`~repro.faults.store.FaultyHeapFile`
        overrides it to raise transient errors or hand back corrupted bytes
        according to its fault plan.  ``attempt`` is the 1-based retry
        attempt of the caller's read.
        """
        del attempt  # the clean heap never fails, whatever the attempt
        return self.pages[page_id].tuple_payloads()

    def page_checksum(self, page_id: int) -> int:
        """CRC32 ground truth for ``page_id`` (what a data file would store)."""
        return self.pages[page_id].checksum()

    def read_page_batch(self, page_id: int, attempt: int = 1) -> TupleBatch:
        """Read and decode a whole page in bulk into a columnar :class:`TupleBatch`."""
        return self.decode_payloads(page_id, self.read_page_verified(page_id, attempt))

    def read_page_verified(self, page_id: int, attempt: int = 1) -> list[bytes]:
        """One page read, without the decode: its stored payloads.

        With :attr:`verify_checksums` set, the bytes read are CRC-checked
        against the page's stored checksum and a mismatch raises
        :class:`~repro.storage.retry.ChecksumError` — a retryable fault the
        buffer pool's bounded-retry read path absorbs.
        """
        self.flush()
        payloads = self._read_page_payloads(page_id, attempt)
        if self.verify_checksums:
            got = zlib.crc32(b"".join(payloads))
            want = self.page_checksum(page_id)
            if got != want:
                raise ChecksumError(
                    f"page {page_id}: checksum mismatch "
                    f"(got {got:#010x}, want {want:#010x})"
                )
        return payloads

    def decode_payloads(self, page_id: int, payloads: list[bytes]) -> TupleBatch:
        """Decode the payloads :meth:`read_page_verified` returned for ``page_id``.

        Compressed (TOAST-like) pages are decompressed tuple-by-tuple — that
        cost is inherent to the format — but the byte parse is still one bulk
        :func:`~repro.storage.codec.decode_page` call over the concatenation.
        A columnar page is its payload with the header checked in one
        compiled call, its directory unparsed
        (:meth:`~repro.storage.columnar.LazyTupleBatch.of_checked_block`);
        a payload that check refuses is parsed here, which raises what a
        damaged page raises.
        """
        if self.layout == "columnar":
            (payload,) = payloads  # columnar pages hold exactly one payload
            batch = LazyTupleBatch.of_checked_block(payload, self.schema)
            if batch is None:
                batch = decode_block_columnar(payload, self.schema)
            self.decode_count += len(batch)
            return batch
        page = self.pages[page_id]
        self.decode_count += page.n_tuples
        buffer = b"".join(map(self._uncompressed, payloads))
        return decode_page(buffer, page.n_tuples, self.schema)

    def read_tuple(self, position: int) -> TrainingTuple:
        """Decode the tuple at heap position ``position``."""
        return self.read_rid(self.rid_of(position))

    def read_rid(self, rid: RID) -> TrainingTuple:
        """Decode the tuple at ``rid`` straight off its page — no position
        directory; a dead or unknown RID raises ``KeyError``."""
        self.flush()
        if self.layout == "columnar":
            # Columnar pages hold one payload; ``slot`` is the row index.
            batch = self.read_page_batch(rid.page_id)
            self.decode_count += 1 - len(batch)  # charge one tuple, not the page
            return TrainingTuple(
                int(batch.ids[rid.slot]),
                float(batch.labels[rid.slot]),
                batch.row(rid.slot),
            )
        try:
            payload = self.pages[rid.page_id].payload(rid.slot)
        except (IndexError, ValueError):
            raise KeyError(rid) from None
        self.decode_count += 1
        return decode_tuple(self._uncompressed(payload), 0, self.schema)[0]

    # ------------------------------------------------------------------
    def pages_per_block(self, block_bytes: int) -> int:
        if block_bytes < self.page_bytes:
            raise ValueError("block_bytes must be at least one page")
        return max(1, block_bytes // self.page_bytes)

    def n_blocks(self, block_bytes: int) -> int:
        per = self.pages_per_block(block_bytes)
        return -(-self.n_pages // per)

    def block_pages(self, block_id: int, block_bytes: int) -> range:
        """The page ids making up block ``block_id``."""
        per = self.pages_per_block(block_bytes)
        n = self.n_blocks(block_bytes)
        if not 0 <= block_id < n:
            raise IndexError(f"block {block_id} out of range [0, {n})")
        lo = block_id * per
        return range(lo, min(lo + per, self.n_pages))
