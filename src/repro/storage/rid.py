"""Record identifiers: stable ``(page_id, slot)`` tuple addresses.

A RID names the physical location of a tuple in a heap file — PostgreSQL's
``ctid``.  RIDs are *stable*: deletes leave dead slots behind instead of
renumbering, and in-page compaction never moves a tuple to a different slot
id, so a RID recorded in a secondary index stays valid until that exact
tuple is deleted or moved by a non-in-place ``UPDATE``.

The serialized form is 6 bytes big-endian — ``page_id:uint32`` +
``slot:uint16`` — the packed-RID layout B+tree leaves store.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import repeat
from typing import NamedTuple

__all__ = ["RID", "RID_BYTES", "rid_run", "pack_rids", "unpack_rids"]

_RID_STRUCT = struct.Struct(">IH")
RID_BYTES = _RID_STRUCT.size  # 6


class RID(NamedTuple):
    """A tuple address: heap page id + slot within the page."""

    page_id: int
    slot: int

    def pack(self) -> bytes:
        """6-byte big-endian serialized form (``page:u32 + slot:u16``)."""
        return _RID_STRUCT.pack(self.page_id, self.slot)

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "RID":
        page_id, slot = _RID_STRUCT.unpack_from(data, offset)
        return cls(page_id, slot)


def rid_run(page_id: int, first: int, count: int):
    """The RIDs of ``count`` consecutive slots of one page, from ``first``
    (built without a Python-level call per RID: bulk loads make one a row)."""
    return map(_RID_FROM_PAIR, zip(repeat(page_id), range(first, first + count)))


_RID_FROM_PAIR = partial(tuple.__new__, RID)


def pack_rids(rids) -> bytes:
    """Concatenate the 6-byte forms of an iterable of RIDs (one pack call)."""
    flat = [v for rid in rids for v in rid]
    return struct.pack(">" + "IH" * (len(flat) // 2), *flat)


def unpack_rids(data: bytes, count: int, offset: int = 0) -> list[RID]:
    run = data[offset : offset + count * RID_BYTES]
    return [RID(*fields) for fields in _RID_STRUCT.iter_unpack(run)]
