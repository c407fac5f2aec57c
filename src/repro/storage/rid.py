"""Record identifiers: stable ``(page_id, slot)`` tuple addresses.

A RID names the physical location of a tuple in a heap file — PostgreSQL's
``ctid``.  RIDs are *stable*: deletes leave dead slots behind instead of
renumbering, and in-page compaction never moves a tuple to a different slot
id, so a RID recorded in a secondary index stays valid until that exact
tuple is deleted or moved by a non-in-place ``UPDATE``.

The serialized form is 6 bytes big-endian — ``page_id:uint32`` +
``slot:uint16`` — the packed-RID layout B+tree leaves store.  In memory a
set of RIDs is one ``int64`` array of ``page_id << SLOT_BITS | slot``: that
integer order is heap order (page-major, slot-ascending), so sorting,
intersecting and page grouping are numpy calls.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

__all__ = [
    "RID", "RID_BYTES", "SLOT_BITS", "SLOT_MASK", "page_runs", "pack_rids", "unpack_rids",
]

_RID_STRUCT = struct.Struct(">IH")
RID_BYTES = _RID_STRUCT.size  # 6

#: A packed RID is ``page_id << SLOT_BITS | slot``; ``& SLOT_MASK`` is the slot.
SLOT_BITS = 16
SLOT_MASK = (1 << SLOT_BITS) - 1


class RID(NamedTuple):
    """A tuple address: heap page id + slot within the page."""

    page_id: int
    slot: int

    def pack(self) -> bytes:
        """6-byte big-endian serialized form (``page:u32 + slot:u16``)."""
        return _RID_STRUCT.pack(self.page_id, self.slot)

    def packed(self) -> int:
        """The sortable integer form, ``page_id << SLOT_BITS | slot``."""
        return (self.page_id << SLOT_BITS) | self.slot

    @classmethod
    def from_packed(cls, value) -> "RID":
        value = int(value)
        return cls(value >> SLOT_BITS, value & SLOT_MASK)

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "RID":
        page_id, slot = _RID_STRUCT.unpack_from(data, offset)
        return cls(page_id, slot)


def page_runs(rids: np.ndarray) -> list[tuple[int, int, int]]:
    """``(page_id, lo, hi)`` for each page of the ascending packed ``rids``:
    ``rids[lo:hi]`` are the ones on that page."""
    pages = rids >> SLOT_BITS
    starts = [0, *(np.flatnonzero(pages[1:] != pages[:-1]) + 1).tolist()] if rids.size else []
    return list(zip(pages[starts].tolist(), starts, [*starts[1:], len(rids)]))


def pack_rids(rids) -> bytes:
    """Concatenate the 6-byte forms of an iterable of RIDs (one pack call)."""
    flat = [v for rid in rids for v in rid]
    return struct.pack(">" + "IH" * (len(flat) // 2), *flat)


def unpack_rids(data: bytes, count: int, offset: int = 0) -> list[RID]:
    run = data[offset : offset + count * RID_BYTES]
    return [RID(*fields) for fields in _RID_STRUCT.iter_unpack(run)]
