"""Faulty storage wrappers: inject a :class:`~repro.faults.plan.FaultPlan`
underneath the verified read paths.

Both wrappers sit at the *read seam* their clean counterparts expose
(``BlockFileReader._read_raw``, ``HeapFile._read_page_payloads``): the bytes
a read returns — not the stored data — are what the plan corrupts, so a
retry really does observe a clean re-read, exactly like a transient torn
read on real hardware.  Checksum verification and bounded retry live in the
clean classes; the wrappers only decide each attempt's fate and record the
injections into a shared :class:`~repro.obs.StorageMetrics`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from .. import obs
from ..storage.blockfile import BlockFileReader, BlockIndexEntry
from ..storage.heapfile import HeapFile
from ..storage.index import IndexFileReader
from ..storage.retry import RetryPolicy, TransientReadError
from .plan import FaultDecision, FaultPlan, InjectedCrash

__all__ = [
    "corrupt_bytes",
    "FaultyBlockFileReader",
    "FaultyHeapFile",
    "FaultyIndexReader",
]


def corrupt_bytes(payload: bytes, salt: int = 0) -> bytes:
    """Deterministically flip bytes of ``payload`` (a torn read).

    Flips one byte per 64-byte stripe, offset by ``salt`` so distinct
    attempts can tear differently.  Guaranteed to differ from the input for
    any non-empty payload, so a CRC32 check always catches it.
    """
    if not payload:
        return payload
    torn = bytearray(payload)
    for pos in range(salt % 64, len(torn), 64):
        torn[pos] ^= 0xA5
    if bytes(torn) == payload:  # pragma: no cover - 0xA5 flip always differs
        torn[0] ^= 0xFF
    return bytes(torn)


class _InjectorMixin:
    """Shared decide-and-act logic for the two faulty stores."""

    plan: FaultPlan
    storage_stats: Any | None
    _sleep = staticmethod(time.sleep)

    def _apply_decision(
        self, decision: FaultDecision, unit: str, target: int
    ) -> bool:
        """Sleep/raise per the decision; returns True when bytes must be torn."""
        stats = self.storage_stats or obs.SESSION_STORAGE
        if decision.delay_s > 0:
            stats.record_latency(decision.delay_s)
            self._sleep(decision.delay_s)
        if decision.crash:
            stats.record_crash()
            raise InjectedCrash(f"injected crash on {unit} {target} read")
        if decision.transient:
            raise TransientReadError(f"injected transient fault on {unit} {target}")
        return decision.corrupt


class FaultyBlockFileReader(_InjectorMixin, BlockFileReader):
    """A :class:`BlockFileReader` whose raw reads obey a fault plan.

    Defaults to a retry budget sized to the plan's worst case
    (``max_consecutive_failures + 1`` attempts, instant backoff), so a plan
    with only transient/torn faults is invisible above the reader.
    """

    def __init__(
        self,
        path: str | Path,
        plan: FaultPlan,
        retry: RetryPolicy | None = None,
        storage_stats: Any | None = None,
    ):
        if retry is None:
            retry = RetryPolicy(max_attempts=plan.max_consecutive_failures + 1)
        super().__init__(path, retry=retry, storage_stats=storage_stats)
        self.plan = plan

    def _read_raw(self, entry: BlockIndexEntry, attempt: int) -> bytes:
        decision = self.plan.decide("block", entry.block_id, attempt)
        tear = self._apply_decision(decision, "block", entry.block_id)
        buffer = super()._read_raw(entry, attempt)
        if tear:
            buffer = corrupt_bytes(buffer, salt=attempt)
        return buffer


class FaultyHeapFile(_InjectorMixin, HeapFile):
    """A fault-injecting *view* over an existing heap file.

    Shares the underlying pages and tuple directory with ``inner`` (no data
    copy); only the read path differs: page payload reads consult the fault
    plan, and checksum verification is switched on so torn reads surface as
    :class:`~repro.storage.retry.ChecksumError` instead of decoding garbage.
    Construct a :class:`~repro.storage.bufferpool.BufferPool` with a
    :class:`~repro.storage.retry.RetryPolicy` over it to get the full
    verified, retrying read stack.
    """

    def __init__(
        self,
        inner: HeapFile,
        plan: FaultPlan,
        storage_stats: Any | None = None,
    ):
        inner.flush()  # columnar heaps buffer appends; a view needs them paged
        super().__init__(
            inner.schema,
            page_bytes=inner.page_bytes,
            compress=inner.compress,
            layout=inner.layout,
        )
        # Alias (not copy) the inner heap's storage: the fault plane changes
        # what reads *return*, never what is stored.
        self.pages = inner.pages
        self._rids = inner.directory()  # rebuilt first if DML left it stale
        self._n_live = inner._n_live
        self._payload_bytes = inner._payload_bytes
        self._total_bytes = inner._total_bytes
        self.inner = inner
        self.plan = plan
        self.storage_stats = storage_stats
        self.verify_checksums = True

    def _read_page_payloads(self, page_id: int, attempt: int = 1) -> list[bytes]:
        decision = self.plan.decide("page", page_id, attempt)
        tear = self._apply_decision(decision, "page", page_id)
        payloads = super()._read_page_payloads(page_id, attempt)
        if tear and payloads:
            payloads = list(payloads)
            victim = page_id % len(payloads)
            payloads[victim] = corrupt_bytes(payloads[victim], salt=attempt)
        return payloads

    def recommended_retry(self) -> RetryPolicy:
        """A retry budget sized to this plan's worst consecutive failures."""
        return RetryPolicy(max_attempts=self.plan.max_consecutive_failures + 1)


class FaultyIndexReader(_InjectorMixin, IndexFileReader):
    """An :class:`IndexFileReader` whose node reads obey a fault plan.

    Plans address ``("index_node", node_id)`` — one B+tree node per target,
    so a spec can tear exactly the leaf a range scan will walk through while
    the descent path above it reads clean.  Torn node bytes fail the
    per-node CRC (:class:`~repro.storage.retry.ChecksumError`), which the
    reader's retry policy absorbs by re-reading — same contract as block
    and heap-page faults.
    """

    def __init__(
        self,
        path,
        plan: FaultPlan,
        retry: RetryPolicy | None = None,
        storage_stats: Any | None = None,
    ):
        if retry is None:
            retry = RetryPolicy(max_attempts=plan.max_consecutive_failures + 1)
        super().__init__(path, retry=retry, storage_stats=storage_stats)
        self.plan = plan

    def _read_node_raw(self, node_id: int, attempt: int = 1) -> bytes:
        decision = self.plan.decide("index_node", node_id, attempt)
        tear = self._apply_decision(decision, "index_node", node_id)
        raw = super()._read_node_raw(node_id, attempt)
        if tear:
            raw = corrupt_bytes(raw, salt=attempt)
        return raw
