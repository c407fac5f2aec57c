"""On-disk block files — the TFRecord-style format of the PyTorch integration.

Section 5 of the paper stores ImageNet as binary record files on a
block-based parallel file system and builds a *block index* marking the
start/end of each block so that ``CorgiPileDataset`` can read whole blocks.
This module implements that format for real: a data file of concatenated
encoded tuples plus a sidecar index recording ``(offset, length, n_tuples)``
per block.

Index format v2 records a CRC32 per block, and the reader verifies every
block read against it before decoding (torn/corrupt reads raise
:class:`~repro.storage.retry.ChecksumError`).  A
:class:`~repro.storage.retry.RetryPolicy` can be attached so transient
faults and checksum failures are absorbed by bounded re-reads — the fault
plane (:mod:`repro.faults`) injects underneath this path via
``FaultyBlockFileReader``.  The reader refuses at open an index whose
blocks carry no checksum (v1) and a columnar index (v3): block files are
row records only, and columnar storage lives in heap pages
(:mod:`repro.storage.columnar`).
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
from .codec import TupleBatch, TupleSchema, decode_block, encode_rows
from .retry import ChecksumError, RetryPolicy

__all__ = ["BlockIndexEntry", "write_block_file", "BlockFileReader", "dataset_block_batch"]

_INDEX_SUFFIX = ".index.json"
_INDEX_FORMAT = 2  # v2 adds per-block crc32 checksums


@dataclass(frozen=True)
class BlockIndexEntry:
    """Location of one block within the data file."""

    block_id: int
    offset: int
    length: int
    n_tuples: int
    crc32: int


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


def _index_doc(dataset_meta: dict[str, Any], entries: list[BlockIndexEntry]) -> dict[str, Any]:
    return {
        "format": _INDEX_FORMAT,
        **dataset_meta,
        "blocks": [
            {
                "block_id": e.block_id,
                "offset": e.offset,
                "length": e.length,
                "n_tuples": e.n_tuples,
                "crc32": e.crc32,
            }
            for e in entries
        ],
    }


def write_block_file(
    dataset: Dataset,
    path: str | Path,
    tuples_per_block: int,
) -> list[BlockIndexEntry]:
    """Materialise ``dataset`` as a block file + index at ``path``.

    Each block is the v2 row-major tuple run of its rows.  Returns the block
    index that was written to ``path + '.index.json'``.
    """
    if tuples_per_block <= 0:
        raise ValueError("tuples_per_block must be positive")
    path = Path(path)
    entries: list[BlockIndexEntry] = []
    offset = 0
    with open(path, "wb") as f:
        block_id = 0
        for lo in range(0, dataset.n_tuples, tuples_per_block):
            hi = min(lo + tuples_per_block, dataset.n_tuples)
            payload = encode_rows(dataset_block_batch(dataset, lo, hi))
            f.write(payload)
            entries.append(
                BlockIndexEntry(block_id, offset, len(payload), hi - lo, zlib.crc32(payload))
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
        f.write(json.dumps(_index_doc(meta, entries)))
    return entries


class BlockFileReader:
    """Random block-granular reader over a block file written above.

    Every block read is CRC-verified before decoding; an index whose blocks
    carry no checksum (v1) or are columnar (v3) is refused at open.  With a
    ``retry`` policy, transient read errors and checksum mismatches are
    retried up to the policy's budget; without one, the first failure
    propagates.
    ``storage_stats`` (a :class:`~repro.obs.StorageMetrics` scope) counts
    attempts and faults either way.
    """

    def __init__(
        self,
        path: str | Path,
        retry: RetryPolicy | None = None,
        storage_stats: Any | None = None,
    ):
        self.path = Path(path)
        with open(str(self.path) + _INDEX_SUFFIX) as f:
            doc = json.load(f)
        if doc.get("layout", "row") != "row" or doc.get("format") == 3:
            raise ValueError(
                f"{self.path}: columnar block index (v3); block files are only "
                "read as row records"
            )
        self.schema = TupleSchema(doc["n_features"], sparse=doc["sparse"])
        self.n_tuples = int(doc["n_tuples"])
        for b in doc["blocks"]:
            if b.get("crc32") is None:
                raise ValueError(
                    f"{self.path}: block {b['block_id']} has no crc32 in its index "
                    "(v1); block files are only read verified"
                )
        self.entries = [
            BlockIndexEntry(b["block_id"], b["offset"], b["length"], b["n_tuples"], b["crc32"])
            for b in doc["blocks"]
        ]
        self._file = open(self.path, "rb")
        self.retry = retry
        self.storage_stats = storage_stats
        self.bytes_read = 0
        self.blocks_read = 0

    @property
    def n_blocks(self) -> int:
        return len(self.entries)

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

    def read_block_batch(self, block_id: int) -> TupleBatch:
        """Read one block as a columnar :class:`TupleBatch` (vectorized decode).

        Verified and (when a policy is attached) retried: the caller either
        receives checksum-clean bytes or sees
        :class:`~repro.storage.retry.ReadExhaustedError` once the budget is
        spent.  Byte accounting only charges reads that succeeded.
        """
        entry = self.entries[block_id]
        buffer = self._run_read(
            lambda attempt: self._read_verified(entry, attempt),
            describe=f"block {block_id} of {self.path.name}",
        )
        self.bytes_read += entry.length
        self.blocks_read += 1
        obs.inc("storage.blockfile.blocks_read")
        obs.inc("storage.blockfile.bytes_read", entry.length)
        return decode_block(buffer, entry.n_tuples, self.schema)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "BlockFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
