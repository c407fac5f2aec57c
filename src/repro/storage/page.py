"""Heap-file pages with a slot directory.

A :class:`Page` is a fixed-capacity byte container holding encoded tuples in
numbered *slots*, mirroring PostgreSQL's 8 KB heap pages with their line
pointer array.  Slots are stable: deleting a tuple marks its slot dead
(``offset = 0, length = 0`` in the on-disk rendering) without renumbering the
survivors, so a ``(page_id, slot)`` RID recorded in a secondary index stays
valid across unrelated DML.  The payload bytes of a dead tuple keep occupying
the page until :meth:`compact` reclaims them — exactly PostgreSQL's dead-line
-pointer behaviour before a (page-local) vacuum.

Pages only know byte offsets; decoding is the caller's job (via
:mod:`repro.storage.codec`), which keeps the page layer reusable for
compressed (TOAST-like) payloads.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

__all__ = ["Page", "DEFAULT_PAGE_BYTES"]

DEFAULT_PAGE_BYTES = 8192


@dataclass
class Page:
    """One fixed-size page of encoded tuples behind a slot directory."""

    page_id: int
    capacity: int = DEFAULT_PAGE_BYTES
    #: Slot directory: ``None`` marks a dead (deleted) slot whose id must
    #: never be reused for a *different* logical position implicitly — only
    #: an explicit :meth:`append` may claim it again.
    _slots: list[bytes | None] = field(default_factory=list, repr=False)
    #: Bytes held by live slots.
    _live: int = 0
    #: Bytes still physically occupied by deleted tuples (until compaction).
    _dead: int = 0
    #: Live slots (maintained, so :attr:`n_tuples` is not a directory walk).
    _n_live: int = 0
    #: Write version, bumped by every mutator: a decoded copy of the page is
    #: current iff it was made at this version (the buffer pool's check).
    version: int = field(default=0, compare=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_slots(
        cls, page_id: int, capacity: int, payloads: list[bytes | None]
    ) -> "Page":
        """Rebuild a page image with its slot directory (``None`` = dead).

        Used by the file loader: dead slots come back as zero-length line
        pointers whose space was already reclaimed at save time, so they
        carry no dead bytes.
        """
        page = cls(page_id, capacity=capacity)
        page._slots = list(payloads)
        page._live = sum(len(p) for p in payloads if p is not None)
        page._n_live = sum(1 for p in payloads if p is not None)
        return page

    # ------------------------------------------------------------------
    def fits(self, n_bytes: int) -> bool:
        """Would ``n_bytes`` fit in the page *as it stands* (no compaction)?"""
        return self._live + self._dead + n_bytes <= self.capacity

    def fits_after_compact(self, n_bytes: int) -> bool:
        """Would ``n_bytes`` fit once dead space is reclaimed?"""
        return self._live + n_bytes <= self.capacity

    def can_fit(self, n_bytes: int) -> bool:
        return self.fits(n_bytes) or self.fits_after_compact(n_bytes)

    def append(self, payload: bytes) -> int:
        """Store one encoded tuple, reusing the lowest dead slot if any.

        Returns the slot id.  Compacts the page first when the tuple only
        fits after reclaiming dead space; raises ``ValueError`` when it does
        not fit at all.
        """
        if len(payload) > self.capacity:
            raise ValueError(
                f"tuple of {len(payload)} bytes exceeds page capacity {self.capacity}"
            )
        if not self.fits(len(payload)):
            if not self.fits_after_compact(len(payload)):
                raise ValueError("page full")
            self.compact()
        self.version += 1
        self._live += len(payload)
        self._n_live += 1
        if self._n_live <= len(self._slots):  # a dead slot exists: lowest first
            slot = self._slots.index(None)
            self._slots[slot] = payload
            return slot
        self._slots.append(payload)
        return len(self._slots) - 1

    def extend(self, payloads: list[bytes]) -> int:
        """Bulk :meth:`append` of a run that fits, onto a page with no dead
        slot to reuse; returns the first slot id of the run."""
        size = sum(map(len, payloads))
        if self._n_live != len(self._slots) or not self.fits(size):
            raise ValueError("bulk append needs room and a page without dead slots")
        first = len(self._slots)
        self.version += 1
        self._slots.extend(payloads)
        self._live += size
        self._n_live += len(payloads)
        return first

    def delete(self, slot: int) -> int:
        """Mark ``slot`` dead; returns the freed payload length.

        The bytes stay counted as occupied (:attr:`used_bytes`) until
        :meth:`compact` — deleting does not shrink the page.
        """
        payload = self.payload(slot)
        self.version += 1
        self._slots[slot] = None
        self._n_live -= 1
        self._live -= len(payload)
        self._dead += len(payload)
        return len(payload)

    def replace(self, slot: int, payload: bytes) -> None:
        """In-place ``UPDATE``: repoint ``slot`` at a new payload.

        Like PostgreSQL, the new tuple needs free space of its own (the old
        version becomes dead space, reclaimed by compaction).  Raises
        ``ValueError`` when the page cannot hold the new version even after
        compaction — the caller then falls back to delete + insert elsewhere,
        which changes the RID.
        """
        old = self.payload(slot)
        if self._live - len(old) + len(payload) > self.capacity:
            raise ValueError("page full")
        # The old version is dead the moment the slot repoints.
        self.version += 1
        self._live -= len(old)
        self._dead += len(old)
        if self._live + self._dead + len(payload) > self.capacity:
            self.compact()
        self._slots[slot] = payload
        self._live += len(payload)

    def compact(self) -> int:
        """Reclaim dead-tuple bytes without renumbering slots.

        Live payloads are (conceptually) slid together; dead slots keep their
        ids as zero-length line pointers.  Returns the bytes reclaimed.
        """
        freed = self._dead
        self.version += 1
        self._dead = 0
        return freed

    # ------------------------------------------------------------------
    def payload(self, slot: int) -> bytes:
        """The stored payload of a live slot; raises on dead/bad slots."""
        if not 0 <= slot < len(self._slots):
            raise IndexError(f"page {self.page_id}: slot {slot} out of range")
        stored = self._slots[slot]
        if stored is None:
            raise ValueError(f"page {self.page_id}: slot {slot} is dead")
        return stored

    def payload_length(self, slot: int) -> int:
        return len(self.payload(slot))

    def is_live(self, slot: int) -> bool:
        return 0 <= slot < len(self._slots) and self._slots[slot] is not None

    def live_slots(self) -> list[int]:
        """Slot ids holding live tuples, in slot order."""
        return [slot for slot, stored in enumerate(self._slots) if stored is not None]

    @property
    def n_slots(self) -> int:
        """Directory length, dead slots included."""
        return len(self._slots)

    @property
    def n_tuples(self) -> int:
        """Live tuples only."""
        return self._n_live

    @property
    def used_bytes(self) -> int:
        """Physically occupied bytes (live + not-yet-compacted dead space)."""
        return self._live + self._dead

    @property
    def live_bytes(self) -> int:
        return self._live

    @property
    def dead_bytes(self) -> int:
        return self._dead

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def raw(self) -> bytes:
        """The concatenated live tuple payloads in slot order (no padding)."""
        return b"".join(stored for stored in self._slots if stored is not None)

    def checksum(self) -> int:
        """CRC32 of the page payload — the ground truth the fault-aware
        read path verifies reads against (PostgreSQL's ``data_checksums``).
        """
        return zlib.crc32(self.raw())

    def tuple_payloads(self) -> list[bytes]:
        """Live payloads in slot order (what a sequential page read yields)."""
        return [stored for stored in self._slots if stored is not None]

    def slot_lengths(self) -> list[int]:
        """Per-slot payload lengths; dead slots render as 0 (Snippet-2 style)."""
        return [0 if stored is None else len(stored) for stored in self._slots]
