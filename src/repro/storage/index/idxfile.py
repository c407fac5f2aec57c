"""The versioned, CRC-checked on-disk form of a B+tree index (``.idx``).

Layout (all integers big-endian; spec pinned in ``docs/storage_format.md``):

```
magic      4s   b"RIDX"
version    u16  FORMAT_VERSION (1)
flags      u16  reserved, 0
header_len u32
header     JSON: column, order, n_entries, n_nodes, height, root (always 0),
           lsn (the last log frame this base covers; absent reads as 0)
header_crc u32  CRC32 of the header JSON bytes
directory  n_nodes × (offset u64, length u32, crc u32)
nodes      concatenated node payloads (offsets relative to this area)
```

Node payload:

```
kind u8                      0 = leaf, 1 = internal
n    u16                     entries (leaf) / separators (internal)
leaf:     n × key f64, n × RID (6 bytes: page u32 + slot u16),
          next_leaf u32      0xFFFFFFFF terminates the chain
internal: n × (key f64 + RID 6B) composite separators,
          (n + 1) × child u32
```

Every node payload carries its own CRC32 in the directory, so a reader can
verify exactly the nodes a range scan touches — the same
verify-before-decode contract as block files, with the same
:class:`~repro.storage.retry.ChecksumError` → bounded-retry escalation.
Files are written via ``durable_write`` (tmp + fsync + rename), so an
interrupted ``CREATE INDEX`` or checkpoint never leaves a torn ``.idx``
behind — recovery sees either the old or the new base.  DML does not rewrite
this file: it appends to the redo log beside it (:mod:`.idxlog`), and the
``lsn`` header key says which of that log's frames the base already holds.

Version bumps follow the heap-file migration playbook (Snippet-2 style):
readers reject unknown versions with :class:`IndexFormatError`, and a
migration tool rewrites old files to the current version after backing the
original up as ``<name>.idx.v<N>.bak``.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Any, Iterator

from ..retry import ChecksumError, RetryPolicy
from ..rid import RID, RID_BYTES, pack_rids, unpack_rids
from .bptree import BPlusTree

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "IndexFormatError",
    "save_index",
    "IndexFileReader",
    "read_index_header",
]

MAGIC = b"RIDX"
FORMAT_VERSION = 1
_NO_NEXT = 0xFFFFFFFF

_PREAMBLE = struct.Struct(">4sHHI")
_DIR_ENTRY = struct.Struct(">QII")
_NODE_HEAD = struct.Struct(">BH")
_KEY = struct.Struct(">d")
_CHILD = struct.Struct(">I")


class IndexFormatError(ValueError):
    """The ``.idx`` bytes are not a readable index of a supported version."""


# ----------------------------------------------------------------------
# Writing
def _encode_leaf(entries, next_id: int | None) -> bytes:
    n = len(entries)  # one pack per run: per-entry packs were most of a base write
    return b"".join(
        (
            _NODE_HEAD.pack(0, n),
            struct.pack(f">{n}d", *[key for key, _ in entries]),
            pack_rids(rid for _, rid in entries),
            _CHILD.pack(_NO_NEXT if next_id is None else next_id),
        )
    )


def _encode_inner(separators, child_ids) -> bytes:
    parts = [_NODE_HEAD.pack(1, len(separators))]
    for key, rid in separators:
        parts.append(_KEY.pack(key))
        parts.append(RID(*rid).pack())
    parts.extend(_CHILD.pack(cid) for cid in child_ids)
    return b"".join(parts)


def save_index(tree: BPlusTree, column: str, path: str | Path, lsn: int = 0) -> Path:
    """Serialize ``tree`` as a ``.idx`` base covering log frames up to
    ``lsn``, atomically and durably."""
    numbered = tree.nodes()
    ids = {id(node): node_id for node_id, node in numbered}
    payloads: list[bytes] = []
    for _, node in numbered:
        if node.is_leaf:
            next_id = None if node.next is None else ids[id(node.next)]
            payloads.append(_encode_leaf(node.entries, next_id))
        else:
            payloads.append(
                _encode_inner(node.separators, [ids[id(c)] for c in node.children])
            )
    header = json.dumps(
        {
            "column": column,
            "order": tree.order,
            "n_entries": tree.n_entries,
            "n_nodes": len(payloads),
            "height": tree.height,
            "root": 0,
            "lsn": int(lsn),
        }
    ).encode()
    directory = []
    offset = 0
    for payload in payloads:
        directory.append(_DIR_ENTRY.pack(offset, len(payload), zlib.crc32(payload)))
        offset += len(payload)
    blob = b"".join(
        [
            _PREAMBLE.pack(MAGIC, FORMAT_VERSION, 0, len(header)),
            header,
            struct.pack(">I", zlib.crc32(header)),
            *directory,
            *payloads,
        ]
    )
    from ...ml.persistence import durable_write  # lazy: avoids an import cycle

    return durable_write(path, blob)


# ----------------------------------------------------------------------
# Reading
def read_index_header(path: str | Path) -> dict:
    """Parse and CRC-verify just the header (cheap metadata peek)."""
    with open(path, "rb") as fh:
        preamble = fh.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise IndexFormatError(f"{path}: truncated index file")
        magic, version, _flags, header_len = _PREAMBLE.unpack(preamble)
        if magic != MAGIC:
            raise IndexFormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                f"{path}: format version {version} not supported "
                f"(this build reads v{FORMAT_VERSION}; run the index "
                "migration to rewrite it)"
            )
        header_bytes = fh.read(header_len)
        (crc,) = struct.unpack(">I", fh.read(4))
    if zlib.crc32(header_bytes) != crc:
        raise IndexFormatError(f"{path}: header CRC mismatch")
    header = json.loads(header_bytes.decode())
    header["version"] = version
    return header


class IndexFileReader:
    """Random-access, CRC-verified reads over a ``.idx`` file.

    Nodes are fetched on demand during descents and leaf-chain walks, each
    read verified against its directory CRC before decoding.
    ``_read_node_raw`` is the fault-injection seam
    (:class:`~repro.faults.store.FaultyIndexReader` overrides it); pass a
    :class:`~repro.storage.retry.RetryPolicy` to absorb transient faults the
    way the block reader does.  ``nodes_read`` counts fetches — the unit the
    I/O model charges an index probe by.
    """

    def __init__(
        self,
        path: str | Path,
        retry: RetryPolicy | None = None,
        storage_stats: Any | None = None,
    ):
        self.path = Path(path)
        self.retry = retry
        self.storage_stats = storage_stats
        self.nodes_read = 0
        data = self.path.read_bytes()
        if len(data) < _PREAMBLE.size:
            raise IndexFormatError(f"{self.path}: truncated index file")
        magic, version, _flags, header_len = _PREAMBLE.unpack_from(data, 0)
        if magic != MAGIC:
            raise IndexFormatError(f"{self.path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                f"{self.path}: format version {version} not supported "
                f"(this build reads v{FORMAT_VERSION})"
            )
        pos = _PREAMBLE.size
        header_bytes = data[pos : pos + header_len]
        pos += header_len
        (crc,) = struct.unpack_from(">I", data, pos)
        pos += 4
        if zlib.crc32(header_bytes) != crc:
            raise IndexFormatError(f"{self.path}: header CRC mismatch")
        header = json.loads(header_bytes.decode())
        self.version = version
        self.column: str = header["column"]
        self.order: int = header["order"]
        self.n_entries: int = header["n_entries"]
        self.n_nodes: int = header["n_nodes"]
        self.height: int = header["height"]
        self.root_id: int = header["root"]
        self.lsn: int = header.get("lsn", 0)
        self._directory = [
            _DIR_ENTRY.unpack_from(data, pos + i * _DIR_ENTRY.size)
            for i in range(self.n_nodes)
        ]
        self._payload_base = pos + self.n_nodes * _DIR_ENTRY.size
        self._data = data
        if self._payload_base + sum(d[1] for d in self._directory) > len(data):
            raise IndexFormatError(f"{self.path}: node area truncated")

    # ------------------------------------------------------------------
    def _read_node_raw(self, node_id: int, attempt: int = 1) -> bytes:
        """One raw node read — the fault-injection seam."""
        del attempt  # the clean reader never fails, whatever the attempt
        offset, length, _crc = self._directory[node_id]
        start = self._payload_base + offset
        return self._data[start : start + length]

    def read_node(self, node_id: int, attempt: int = 1):
        """Read, CRC-verify, and decode one node.

        Returns ``("leaf", entries, next_id)`` or ``("inner", separators,
        child_ids)``; raises :class:`ChecksumError` on a torn read.
        """
        if not 0 <= node_id < self.n_nodes:
            raise IndexFormatError(f"{self.path}: node {node_id} out of range")
        raw = self._read_node_raw(node_id, attempt)
        want = self._directory[node_id][2]
        got = zlib.crc32(raw)
        if got != want:
            raise ChecksumError(
                f"index node {node_id}: checksum mismatch "
                f"(got {got:#010x}, want {want:#010x})"
            )
        self.nodes_read += 1
        return _decode_node(raw)

    def _fetch(self, node_id: int):
        """A node read under the retry policy (if any)."""
        if self.retry is None:
            return self.read_node(node_id)
        return self.retry.run(
            lambda attempt: self.read_node(node_id, attempt),
            stats=self.storage_stats,
            describe=f"index node {node_id} of {self.path.name}",
        )

    # ------------------------------------------------------------------
    def range_rids(
        self,
        lo: float | None = None,
        hi: float | None = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[float, RID]]:
        """Stream ``(key, rid)`` over the interval, straight off the file."""
        from bisect import bisect_left, bisect_right

        probe = None
        if lo is not None:
            bound = RID(0, 0) if lo_inclusive else RID(2**32 - 1, 2**16 - 1)
            probe = (float(lo), bound)
        node_id = self.root_id
        node = self._fetch(node_id)
        while node[0] == "inner":
            _, separators, children = node
            idx = 0 if probe is None else bisect_right(separators, probe)
            node = self._fetch(children[idx])
        _, entries, next_id = node
        idx = 0
        if probe is not None:
            idx = (bisect_left if lo_inclusive else bisect_right)(entries, probe)
        while True:
            while idx < len(entries):
                key, rid = entries[idx]
                if hi is not None and (key > hi or (key == hi and not hi_inclusive)):
                    return
                yield key, rid
                idx += 1
            if next_id is None:
                return
            _, entries, next_id = self._fetch(next_id)
            idx = 0

    def items(self) -> Iterator[tuple[float, RID]]:
        return self.range_rids()

    def search(self, key: float) -> list[RID]:
        return [rid for _, rid in self.range_rids(key, key)]

    # ------------------------------------------------------------------
    def validate(self) -> dict:
        """Full-file audit: every node CRC + entry count + leaf order.

        The recovery check: a file that validates is exactly one the writer
        produced (durable_write guarantees old-or-new, this proves "whole").
        """
        entries = 0
        last = None
        leaves = 0
        for node_id in range(self.n_nodes):
            # Audit through the retry policy: a transient or torn read that
            # re-reads clean is healthy, not corrupt.  A reader with no
            # policy (the default) still surfaces the first CRC mismatch.
            node = self._fetch(node_id)
            if node[0] == "leaf":
                leaves += 1
                entries += len(node[1])
        for key, rid in self.items():
            if last is not None and (key, rid) < last:
                raise IndexFormatError(f"{self.path}: leaf chain out of order")
            last = (key, rid)
        if entries != self.n_entries:
            raise IndexFormatError(
                f"{self.path}: header says {self.n_entries} entries, "
                f"nodes hold {entries}"
            )
        return {
            "nodes": self.n_nodes,
            "leaves": leaves,
            "entries": entries,
            "height": self.height,
            "version": self.version,
        }

    def to_tree(self) -> BPlusTree:
        """Rebuild the in-memory tree (bulk load from the leaf chain)."""
        return BPlusTree.bulk_load(self.items(), order=self.order)


def _decode_node(raw: bytes):
    kind, n = _NODE_HEAD.unpack_from(raw, 0)
    pos = _NODE_HEAD.size
    if kind == 0:
        keys = struct.unpack_from(f">{n}d", raw, pos)
        pos += n * 8
        rids = unpack_rids(raw, n, pos)
        pos += n * RID_BYTES
        (next_raw,) = _CHILD.unpack_from(raw, pos)
        next_id = None if next_raw == _NO_NEXT else next_raw
        return ("leaf", list(zip(keys, rids)), next_id)
    if kind == 1:
        separators = []
        for _ in range(n):
            (key,) = _KEY.unpack_from(raw, pos)
            pos += 8
            separators.append((key, RID.unpack(raw, pos)))
            pos += RID_BYTES
        children = [
            _CHILD.unpack_from(raw, pos + i * _CHILD.size)[0] for i in range(n + 1)
        ]
        return ("inner", separators, children)
    raise IndexFormatError(f"unknown node kind {kind}")
