"""In-place migration of row block files to the columnar block format.

``repro migrate`` (and :func:`migrate_file` underneath) converts v2 row
block files (``*.index.json`` sidecar) into v3 columnar block files at the
same path.  The conversion is

* **atomic** — the new data file is assembled in a ``.migrate.tmp`` sibling
  and moved into place with fsync + ``os.replace`` (the index sidecar goes
  through :func:`~repro.ml.persistence.durable_write`), so a crash never
  leaves a half-written file where the source used to be;
* **CRC-verified** — source blocks are read through the checksum-verifying
  reader, and each re-encoded block is decoded back and compared
  element-wise against the source batch before it is accepted;
* **resumable** — progress is journalled per block to a
  ``.migrate.state.json`` sidecar; re-running after a crash picks up at the
  first unconverted block instead of starting over.

Block boundaries are preserved exactly, so CorgiPile's block-level shuffle
visits tuples in the identical order before and after migration — training
on a migrated file is bit-identical to training on the source.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ml.persistence import durable_write
from .blockfile import (
    _INDEX_SUFFIX,
    BlockFileReader,
    BlockIndexEntry,
    _index_doc,
)
from .codec import TupleBatch
from .columnar import (
    COLUMNAR_MAGIC,
    decode_block_columnar,
    encode_block_columnar,
    read_columnar_header,
)

__all__ = ["MigrationReport", "migrate_file"]

_STATE_SUFFIX = ".migrate.state.json"
_TMP_SUFFIX = ".migrate.tmp"


@dataclass
class MigrationReport:
    """What one :func:`migrate_file` call did."""

    path: str
    kind: str  # "block"
    skipped: bool = False  # already columnar — nothing to do
    n_blocks: int = 0
    n_tuples: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    resumed_at_block: int = 0  # first block actually converted this run
    verified_blocks: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def bytes_per_tuple_before(self) -> float:
        return self.bytes_before / self.n_tuples if self.n_tuples else 0.0

    @property
    def bytes_per_tuple_after(self) -> float:
        return self.bytes_after / self.n_tuples if self.n_tuples else 0.0

    def to_doc(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "skipped": self.skipped,
            "n_blocks": self.n_blocks,
            "n_tuples": self.n_tuples,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "resumed_at_block": self.resumed_at_block,
            "verified_blocks": self.verified_blocks,
            "notes": list(self.notes),
        }


def _batches_equal(a: TupleBatch, b) -> bool:
    """Element-wise equality of a row batch and a (lazy) columnar batch."""
    if not np.array_equal(a.ids, b.ids) or not np.array_equal(a.labels, b.labels):
        return False
    if a.is_sparse != b.is_sparse:
        return False
    if a.is_sparse:
        return (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values)
        )
    return np.array_equal(a.dense, b.dense)


def _load_state(state_path: Path, fingerprint: dict) -> dict | None:
    """The resume journal, iff it matches the current source file."""
    if not state_path.exists():
        return None
    try:
        with open(state_path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        return None
    if state.get("fingerprint") != fingerprint:
        return None
    return state


def _finish_interrupted_finalize(
    path: Path, index_path: Path, state_path: Path
) -> MigrationReport:
    """Rewrite the v3 index for a data file whose finalize was interrupted."""
    with open(state_path) as f:
        state = json.load(f)
    docs = state["entries"]
    if int(state["blocks_done"]) != len(docs) or path.stat().st_size != int(
        state["tmp_bytes"]
    ):
        raise RuntimeError(
            f"{path}: columnar data with an inconsistent migration journal; "
            "cannot recover automatically"
        )
    entries: list[BlockIndexEntry] = []
    n_tuples = 0
    meta: dict | None = None
    with open(path, "rb") as f:
        for d in docs:
            f.seek(d["offset"])
            payload = f.read(d["length"])
            if zlib.crc32(payload) != d["crc32"]:
                raise RuntimeError(
                    f"{path}: block {d['block_id']} fails its journalled checksum"
                )
            n_rows, n_features, sparse, refs = read_columnar_header(payload)
            if meta is None:
                meta = {"n_features": n_features, "sparse": sparse}
            entries.append(
                BlockIndexEntry(
                    d["block_id"], d["offset"], d["length"], d["n_tuples"], d["crc32"], refs
                )
            )
            n_tuples += int(d["n_tuples"])
    assert meta is not None
    meta["n_tuples"] = n_tuples
    durable_write(
        index_path, json.dumps(_index_doc(meta, entries, "columnar")).encode()
    )
    try:
        os.unlink(state_path)
    except OSError:
        pass
    size = path.stat().st_size
    return MigrationReport(
        path=str(path),
        kind=str(state["fingerprint"].get("kind", "block")),
        n_blocks=len(entries),
        n_tuples=n_tuples,
        bytes_before=size,
        bytes_after=size,
        notes=["recovered interrupted finalize (index rebuilt from journal)"],
    )


def migrate_file(
    path: str | Path,
    verify: bool = True,
    _stop_after_blocks: int | None = None,
) -> MigrationReport:
    """Convert the row block file at ``path`` to columnar, in place.

    ``verify`` round-trips every converted block (decode + element-wise
    compare against the source batch) before accepting it.

    ``_stop_after_blocks`` is a test-only crash hook: the migration raises
    ``KeyboardInterrupt`` after journalling that many blocks, leaving a
    valid resume state behind.
    """
    path = Path(path)
    index_path = Path(str(path) + _INDEX_SUFFIX)
    state_path = Path(str(path) + _STATE_SUFFIX)
    tmp_path = Path(str(path) + _TMP_SUFFIX)

    with open(path, "rb") as f:
        head = f.read(len(COLUMNAR_MAGIC))
    source_bytes = path.stat().st_size

    if head.startswith(COLUMNAR_MAGIC) and state_path.exists():
        # Crashed between the data-file replace and the index write: the
        # data file is already columnar, the journal has the final entries.
        return _finish_interrupted_finalize(path, index_path, state_path)

    if not index_path.exists():
        raise ValueError(f"{path}: not a migratable file (no {_INDEX_SUFFIX} sidecar)")
    kind = "block"
    reader = BlockFileReader(path)
    if reader.layout == "columnar":
        reader.close()
        return MigrationReport(
            path=str(path),
            kind=kind,
            skipped=True,
            n_blocks=0,
            n_tuples=reader.n_tuples,
            bytes_before=source_bytes,
            bytes_after=source_bytes,
            notes=["already columnar"],
        )
    schema = reader.schema
    n_tuples = reader.n_tuples
    meta = {
        "n_features": schema.n_features,
        "sparse": schema.sparse,
        "n_tuples": n_tuples,
    }
    thunks = [(lambda i=i: reader.read_block_batch(i)) for i in range(reader.n_blocks)]

    fingerprint = {"source_bytes": source_bytes, "n_blocks": len(thunks), "kind": kind}
    state = _load_state(state_path, fingerprint)
    entries: list[BlockIndexEntry] = []
    start_block = 0
    offset = 0
    if state is not None:
        docs = state["entries"]
        entries = [
            BlockIndexEntry(
                d["block_id"],
                d["offset"],
                d["length"],
                d["n_tuples"],
                d["crc32"],
                None,  # chunk refs are rebuilt from the tmp payloads below
            )
            for d in docs
        ]
        start_block = int(state["blocks_done"])
        offset = int(state["tmp_bytes"])

    report = MigrationReport(
        path=str(path),
        kind=kind,
        n_blocks=len(thunks),
        n_tuples=n_tuples,
        bytes_before=source_bytes,
        resumed_at_block=start_block,
    )

    mode = "r+b" if (state is not None and tmp_path.exists()) else "wb"
    if mode == "wb":
        entries = []
        start_block = 0
        offset = 0
        report.resumed_at_block = 0
    with open(tmp_path, mode) as out:
        if mode == "r+b":
            out.truncate(offset)  # drop any torn tail past the journalled offset
        out.seek(offset)
        for block_id in range(start_block, len(thunks)):
            batch = thunks[block_id]()
            payload = encode_block_columnar(batch, schema)
            if verify:
                decoded = decode_block_columnar(payload, schema)
                if not _batches_equal(batch, decoded):
                    raise RuntimeError(
                        f"{path}: block {block_id} failed round-trip verification"
                    )
                report.verified_blocks += 1
            out.write(payload)
            out.flush()
            os.fsync(out.fileno())
            entries.append(
                BlockIndexEntry(
                    block_id, offset, len(payload), len(batch), zlib.crc32(payload)
                )
            )
            offset += len(payload)
            durable_write(
                state_path,
                json.dumps(
                    {
                        "fingerprint": fingerprint,
                        "blocks_done": block_id + 1,
                        "tmp_bytes": offset,
                        "entries": [
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
                ).encode(),
            )
            if (
                _stop_after_blocks is not None
                and block_id - start_block + 1 >= _stop_after_blocks
                and block_id + 1 < len(thunks)
            ):
                raise KeyboardInterrupt(
                    f"migration stopped after {_stop_after_blocks} blocks (test hook)"
                )

    reader.close()

    # Rebuild the chunk directories from the tmp payloads (cheap header
    # parses) so the index mirrors each block's binary directory.
    full_entries: list[BlockIndexEntry] = []
    with open(tmp_path, "rb") as f:
        for e in entries:
            f.seek(e.offset)
            payload = f.read(e.length)
            refs = read_columnar_header(payload)[3]
            full_entries.append(
                BlockIndexEntry(
                    e.block_id, e.offset, e.length, e.n_tuples, e.crc32, refs
                )
            )

    # Finalize: data file first, then the index sidecar.  Both moves are
    # atomic; if we crash in between, re-running the migration rebuilds the
    # index from the (already columnar) data file via the journal.
    with open(tmp_path, "rb") as f:
        os.fsync(f.fileno())
    os.replace(tmp_path, path)
    durable_write(
        index_path, json.dumps(_index_doc(meta, full_entries, "columnar")).encode()
    )
    try:
        os.unlink(state_path)
    except OSError:
        pass

    report.bytes_after = path.stat().st_size
    report.notes.append(
        f"{report.bytes_per_tuple_before:.1f} -> {report.bytes_per_tuple_after:.1f} bytes/tuple"
    )
    return report
