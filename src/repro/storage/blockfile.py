"""On-disk block files — the TFRecord-style format of the PyTorch integration.

Section 5 of the paper stores ImageNet as binary record files on a
block-based parallel file system and builds a *block index* marking the
start/end of each block so that ``CorgiPileDataset`` can read whole blocks.
This module implements that format for real: a data file of concatenated
encoded tuples plus a sidecar index recording ``(offset, length, n_tuples)``
per block.

Index format v2 additionally records a CRC32 per block, and the reader
verifies every block read against it before decoding (torn/corrupt reads
raise :class:`~repro.storage.retry.ChecksumError`).  A
:class:`~repro.storage.retry.RetryPolicy` can be attached so transient
faults and checksum failures are absorbed by bounded re-reads — the fault
plane (:mod:`repro.faults`) injects underneath this path via
``FaultyBlockFileReader``.  v1 indexes (no checksums) still load; their
reads simply skip verification.

Index format v3 (``layout = "columnar"``) stores each block as the
columnar payload of :mod:`repro.storage.columnar` and mirrors the block's
binary column directory into the index, so
:meth:`BlockFileReader.read_block_batch` can either map a whole block into
a lazy :class:`~repro.storage.columnar.LazyTupleBatch` or — given
``columns=...`` — seek to and read *only* the requested column chunks,
each verified against its own CRC32.  ``repro migrate`` converts v1/v2 row
files in place; the row format stays fully readable.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .. import obs
from ..data.dataset import Dataset
from ..data.sparse import SparseMatrix
from .codec import TrainingTuple, TupleBatch, TupleSchema, decode_block, encode_rows
from .columnar import (
    ChunkRef,
    LazyTupleBatch,
    columns_for,
    encode_block_columnar,
    read_columnar_header,
)
from .retry import ChecksumError, RetryPolicy

__all__ = ["BlockIndexEntry", "write_block_file", "BlockFileReader", "dataset_block_batch"]

_INDEX_SUFFIX = ".index.json"
_INDEX_FORMAT = 2  # v2 adds per-block crc32 checksums
_INDEX_FORMAT_COLUMNAR = 3  # v3 adds the columnar layout + chunk directory
LAYOUTS = ("row", "columnar")


@dataclass(frozen=True)
class BlockIndexEntry:
    """Location of one block within the data file."""

    block_id: int
    offset: int
    length: int
    n_tuples: int
    crc32: int | None = None  # None for v1 indexes written without checksums
    #: Column-chunk directory (columnar layout only): offsets relative to
    #: ``offset``, so a pruned read seeks straight to ``offset + ref.offset``.
    chunks: tuple[ChunkRef, ...] | None = None


def dataset_block_batch(dataset: Dataset, lo: int, hi: int) -> TupleBatch:
    """One block of ``dataset`` rows ``[lo, hi)`` as a columnar batch.

    Slices straight out of the dataset's arrays (CSR slice for sparse), so
    no per-tuple loop is involved.
    """
    ids = np.arange(lo, hi, dtype=np.int64)
    labels = np.asarray(dataset.y[lo:hi], dtype=np.float64)
    if isinstance(dataset.X, SparseMatrix):
        start, stop = int(dataset.X.indptr[lo]), int(dataset.X.indptr[hi])
        return TupleBatch(
            ids=ids,
            labels=labels,
            n_features=dataset.n_features,
            indptr=np.ascontiguousarray(dataset.X.indptr[lo : hi + 1] - start),
            indices=dataset.X.indices[start:stop],
            values=dataset.X.data[start:stop],
        )
    return TupleBatch(
        ids=ids,
        labels=labels,
        n_features=dataset.n_features,
        dense=np.asarray(dataset.X[lo:hi], dtype=np.float64),
    )


def _index_doc(
    dataset_meta: dict[str, Any], entries: list[BlockIndexEntry], layout: str
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": _INDEX_FORMAT_COLUMNAR if layout == "columnar" else _INDEX_FORMAT,
        **dataset_meta,
        "blocks": [
            {
                "block_id": e.block_id,
                "offset": e.offset,
                "length": e.length,
                "n_tuples": e.n_tuples,
                "crc32": e.crc32,
                **(
                    {"chunks": [ref.to_doc() for ref in e.chunks]}
                    if e.chunks is not None
                    else {}
                ),
            }
            for e in entries
        ],
    }
    if layout == "columnar":
        doc["layout"] = "columnar"
    return doc


def write_block_file(
    dataset: Dataset,
    path: str | Path,
    tuples_per_block: int,
    layout: str = "row",
) -> list[BlockIndexEntry]:
    """Materialise ``dataset`` as a block file + index at ``path``.

    ``layout="row"`` writes the v2 row-major tuple runs; ``layout="columnar"``
    writes per-block column chunks (v3 index) whose chunk directory is
    mirrored into the index for pruned reads.  Returns the block index that
    was written to ``path + '.index.json'``.
    """
    if tuples_per_block <= 0:
        raise ValueError("tuples_per_block must be positive")
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
    path = Path(path)
    schema = TupleSchema(dataset.n_features, sparse=dataset.is_sparse)
    entries: list[BlockIndexEntry] = []
    offset = 0
    with open(path, "wb") as f:
        block_id = 0
        for lo in range(0, dataset.n_tuples, tuples_per_block):
            hi = min(lo + tuples_per_block, dataset.n_tuples)
            chunks: tuple[ChunkRef, ...] | None = None
            batch = dataset_block_batch(dataset, lo, hi)
            if layout == "columnar":
                payload = encode_block_columnar(batch, schema)
                chunks = read_columnar_header(payload)[3]
            else:
                payload = encode_rows(batch)
            f.write(payload)
            entries.append(
                BlockIndexEntry(
                    block_id,
                    offset,
                    len(payload),
                    hi - lo,
                    zlib.crc32(payload),
                    chunks,
                )
            )
            offset += len(payload)
            block_id += 1
    meta = {
        "n_features": dataset.n_features,
        "sparse": dataset.is_sparse,
        "n_tuples": dataset.n_tuples,
    }
    with open(str(path) + _INDEX_SUFFIX, "w") as f:
        # One C-encoder call; ``json.dump`` would stream from the Python one.
        f.write(json.dumps(_index_doc(meta, entries, layout)))
    return entries


class BlockFileReader:
    """Random block-granular reader over a block file written above.

    Every block read is CRC-verified (when the index carries checksums)
    before decoding.  With a ``retry`` policy, transient read errors and
    checksum mismatches are retried up to the policy's budget; without one,
    the first failure propagates.  ``storage_stats`` (a
    :class:`~repro.obs.StorageMetrics` scope) counts attempts and faults
    either way.
    """

    def __init__(
        self,
        path: str | Path,
        retry: RetryPolicy | None = None,
        storage_stats: Any | None = None,
        verify_checksums: bool = True,
    ):
        self.path = Path(path)
        with open(str(self.path) + _INDEX_SUFFIX) as f:
            doc = json.load(f)
        self.schema = TupleSchema(doc["n_features"], sparse=doc["sparse"])
        self.n_tuples = int(doc["n_tuples"])
        self.index_format = int(doc.get("format", 1))
        self.layout = doc.get("layout", "row")
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown block-file layout {self.layout!r}")
        self.entries = [
            BlockIndexEntry(
                b["block_id"],
                b["offset"],
                b["length"],
                b["n_tuples"],
                b.get("crc32"),
                tuple(ChunkRef.from_doc(c) for c in b["chunks"])
                if "chunks" in b
                else None,
            )
            for b in doc["blocks"]
        ]
        self._file = open(self.path, "rb")
        self.retry = retry
        self.storage_stats = storage_stats
        self.verify_checksums = bool(verify_checksums)
        self.bytes_read = 0
        self.blocks_read = 0

    @property
    def n_blocks(self) -> int:
        return len(self.entries)

    def read_block(self, block_id: int) -> list[TrainingTuple]:
        """Read one block as per-tuple records (decoded via the bulk path)."""
        return self.read_block_batch(block_id).to_tuples()

    # ------------------------------------------------------------------
    def _read_raw(self, entry: BlockIndexEntry, attempt: int) -> bytes:
        """Read one block's raw bytes — the fault-injection seam.

        The base reader seeks and reads; ``FaultyBlockFileReader`` overrides
        this to consult its fault plan (raise a transient error, return
        corrupted bytes, sleep, or crash) per ``attempt``.
        """
        del attempt
        self._file.seek(entry.offset)
        return self._file.read(entry.length)

    def _read_verified(self, entry: BlockIndexEntry, attempt: int) -> bytes:
        buffer = self._read_raw(entry, attempt)
        if self.verify_checksums and entry.crc32 is not None:
            got = zlib.crc32(buffer)
            if got != entry.crc32:
                raise ChecksumError(
                    f"block {entry.block_id}: checksum mismatch "
                    f"(got {got:#010x}, want {entry.crc32:#010x})"
                )
        return buffer

    def _run_read(self, fn, describe: str) -> bytes:
        """Run a raw-read closure under the retry policy / stats protocol."""
        if self.retry is not None:
            return self.retry.run(fn, stats=self.storage_stats, describe=describe)
        stats = self.storage_stats or obs.SESSION_STORAGE
        stats.record_attempt()
        try:
            buffer = fn(1)
        except ChecksumError as exc:
            stats.record_fault(exc)
            raise
        stats.record_ok()
        return buffer

    # -- columnar chunk path -------------------------------------------
    def _read_chunk_raw(self, entry: BlockIndexEntry, ref: ChunkRef, attempt: int) -> bytes:
        """Read one column chunk's raw bytes — the chunk fault-injection seam.

        Chunk offsets in the directory are relative to the block start, so
        the file offset is ``entry.offset + ref.offset``.
        ``FaultyBlockFileReader`` overrides this to inject per-chunk faults.
        """
        del attempt
        self._file.seek(entry.offset + ref.offset)
        return self._file.read(ref.length)

    def _read_chunk_verified(
        self, entry: BlockIndexEntry, ref: ChunkRef, attempt: int
    ) -> bytes:
        buffer = self._read_chunk_raw(entry, ref, attempt)
        if self.verify_checksums:
            got = zlib.crc32(buffer)
            if got != ref.crc32:
                raise ChecksumError(
                    f"block {entry.block_id} chunk {ref.name}: checksum mismatch "
                    f"(got {got:#010x}, want {ref.crc32:#010x})"
                )
        return buffer

    def read_block_batch(
        self, block_id: int, columns: Any | None = None
    ) -> TupleBatch | LazyTupleBatch:
        """Read one block as a columnar :class:`TupleBatch` (vectorized decode).

        Verified and (when a policy is attached) retried: the caller either
        receives checksum-clean bytes or sees
        :class:`~repro.storage.retry.ReadExhaustedError` once the budget is
        spent.  Byte accounting only charges reads that succeeded.

        On a columnar file the result is a lazy
        :class:`~repro.storage.columnar.LazyTupleBatch`; passing
        ``columns=("labels", "values", ...)`` reads and verifies *only* those
        chunks from disk (a pruned read), each against its directory CRC32.
        Row files ignore ``columns`` — the row codec always decodes whole
        tuples.
        """
        entry = self.entries[block_id]
        if self.layout == "columnar" and columns is not None and entry.chunks:
            wanted = columns_for(columns)
            refs = [r for r in entry.chunks if r.col in wanted]
            chunks = {}
            read_bytes = 0
            for ref in refs:
                buf = self._run_read(
                    lambda attempt, ref=ref: self._read_chunk_verified(
                        entry, ref, attempt
                    ),
                    describe=f"block {block_id} chunk {ref.name} of {self.path.name}",
                )
                chunks[ref.col] = (buf, ref)
                read_bytes += ref.length
            self.bytes_read += read_bytes
            self.blocks_read += 1
            obs.inc("storage.blockfile.blocks_read")
            obs.inc("storage.blockfile.chunk_reads", len(refs))
            obs.inc("storage.blockfile.bytes_read", read_bytes)
            return LazyTupleBatch.from_chunks(
                entry.n_tuples, self.schema.n_features, self.schema.sparse, chunks
            )
        buffer = self._run_read(
            lambda attempt: self._read_verified(entry, attempt),
            describe=f"block {block_id} of {self.path.name}",
        )
        self.bytes_read += entry.length
        self.blocks_read += 1
        obs.inc("storage.blockfile.blocks_read")
        obs.inc("storage.blockfile.bytes_read", entry.length)
        if self.layout == "columnar":
            return LazyTupleBatch.from_block(buffer)
        return decode_block(buffer, entry.n_tuples, self.schema)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "BlockFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
