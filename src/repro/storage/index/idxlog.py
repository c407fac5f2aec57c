"""The redo log beside a ``.idx`` base: one frame per DML statement.

A statement's index maintenance is a handful of ``(insert | delete, key,
rid)`` ops, so that — not the whole tree — is what :func:`append_frame`
makes durable before the statement returns: one frame appended to
``<table>.<index>.idx.wal``, one ``fsync``.  Big-endian; the spec is
``docs/storage_format.md`` §5.6:

```
crc u32 | length u32 | lsn u64 | length / 15 × (op u8, key f64, RID 6 B)
```

:func:`load_index` is recovery: the base plus, in file order, every complete
frame whose LSN is above the base's.  A torn or CRC-bad frame ends the log —
it is the statement that was in flight — so recovery yields the index as of
the last statement that returned or the one before it, never part of one.
:func:`checkpoint` renames a new base (which records the LSN it covers) into
place *before* emptying the log, so a crash between the two leaves only
frames at or below the base's LSN, which replay to a no-op.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from ... import obs
from ..rid import RID
from .bptree import BPlusTree
from .idxfile import IndexFileReader, IndexFormatError, read_index_header, save_index

__all__ = ["log_path", "append_frame", "read_frames", "load_index", "last_lsn", "checkpoint"]

INSERT, DELETE = 1, 2
_HEAD = struct.Struct(">IIQ")
_OP = struct.Struct(">BdIH")


def log_path(path: str | Path) -> Path:
    """The log that belongs to the base file ``path``."""
    return Path(f"{path}.wal")


def append_frame(path: str | Path, lsn: int, ops) -> int:
    """Append one statement's ops as frame ``lsn`` and fsync; returns its size."""
    payload = b"".join(_OP.pack(op, key, *rid) for op, key, rid in ops)
    body = struct.pack(">IQ", len(payload), lsn) + payload
    frame = struct.pack(">I", zlib.crc32(body)) + body
    fd = os.open(log_path(path), os.O_WRONLY | os.O_APPEND)
    try:
        os.write(fd, frame)
        os.fsync(fd)
    finally:
        os.close(fd)
    obs.inc("storage.index.wal_frames")
    obs.inc("storage.index.wal_bytes", len(frame))
    return len(frame)


def read_frames(path: str | Path) -> Iterator[tuple[int, list[tuple[int, float, RID]]]]:
    """``(lsn, ops)`` of every complete, CRC-clean frame, in file order."""
    try:
        data = log_path(path).read_bytes()
    except FileNotFoundError:
        return
    pos = 0
    while pos + _HEAD.size <= len(data):
        crc, length, lsn = _HEAD.unpack_from(data, pos)
        start, end = pos + _HEAD.size, pos + _HEAD.size + length
        if end > len(data) or length % _OP.size or zlib.crc32(data[pos + 4 : end]) != crc:
            return  # the torn tail of the statement that was in flight
        yield lsn, [
            (op, key, RID(page_id, slot))
            for op, key, page_id, slot in _OP.iter_unpack(data[start:end])
        ]
        pos = end


def load_index(path: str | Path) -> BPlusTree:
    """Recover the tree at ``path``: the base plus its log's newer frames."""
    reader = IndexFileReader(path)
    tree = reader.to_tree()
    for lsn, ops in read_frames(path):
        if lsn <= reader.lsn:
            continue  # already in the base: a log that outlived its checkpoint
        for op, key, rid in ops:
            if op == INSERT:
                tree.insert(key, rid)
            elif op == DELETE:
                tree.delete(key, rid)
            else:
                raise IndexFormatError(f"{log_path(path)}: unknown log op {op}")
    return tree


def last_lsn(path: str | Path) -> int:
    """The highest LSN any base or log at ``path`` has used, 0 if neither
    exists — what a ``CREATE INDEX`` over leftover files must start above."""
    try:
        lsn = read_index_header(path).get("lsn", 0)
    except (OSError, IndexFormatError):
        lsn = 0
    return max([lsn, *(frame_lsn for frame_lsn, _ops in read_frames(path))])


def _reset_log(log: Path) -> None:
    """Create or empty ``log``, durably."""
    from ...ml.persistence import _fsync_dir  # lazy: avoids an import cycle

    created = not log.exists()
    with open(log, "wb") as fh:
        os.fsync(fh.fileno())
    if created:
        _fsync_dir(log.parent)


def checkpoint(tree: BPlusTree, column: str, path: str | Path, lsn: int) -> int:
    """Write a base covering ``lsn``, then empty the log; returns base bytes."""
    save_index(tree, column, path, lsn)
    _reset_log(log_path(path))
    obs.inc("storage.index.checkpoints")
    return os.path.getsize(path)
