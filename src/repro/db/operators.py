"""Volcano-style physical operators (Section 6.2).

The paper adds three operators to PostgreSQL and chains them into a
pull-based pipeline::

    SGDOperator  ←pull←  TupleShuffleOperator  ←pull←  BlockShuffleOperator

Each operator implements ``open() / next() / close() / rescan()``.
``rescan`` is the re-scan mechanism the SGD operator invokes between epochs
(resetting buffers and re-shuffling block ids, like PostgreSQL's
NestedLoopJoin re-scans its inner).

Operators log their physical reads into a
:class:`~repro.db.timing.RuntimeContext`: the BlockShuffle operator charges
page reads (device-speed on buffer-pool misses, memory-speed on hits) and
the TupleShuffle operator marks buffer-fill boundaries so double buffering
can overlap fill I/O with SGD compute.

``SeqScanOperator`` is the No-Shuffle access path (MADlib/Bismarck without a
pre-shuffled copy) and is also used to scan a pre-shuffled table.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .. import obs
from ..core.buffer import ShuffleBuffer
from ..core.seeding import (
    BLOCK_RESHUFFLE_STREAM,
    MRS_STREAM,
    SLIDING_WINDOW_STREAM,
    TUPLE_SHUFFLE_STREAM,
    derive_rng,
    epoch_rng,
    stream_rng,
)
from ..ml.models.base import SupervisedModel
from ..ml.persistence import save_checkpoint
from ..ml.trainer import CheckpointConfig, ConvergenceHistory, TrainInterrupted, restore_run
from ..storage.codec import TrainingTuple
from ..storage.retry import ReadExhaustedError
from .catalog import TableInfo
from .errors import StorageError
from .timing import RuntimeContext

__all__ = [
    "PhysicalOperator",
    "SeqScanOperator",
    "FilteredSeqScanOperator",
    "BlockShuffleOperator",
    "RidBlockShuffleOperator",
    "TupleShuffleOperator",
    "PassThroughAccountingOperator",
    "PermutedScanOperator",
    "SlidingWindowOperator",
    "MultiplexedReservoirOperator",
    "SGDOperator",
]


class PhysicalOperator(ABC):
    """The Volcano iterator interface."""

    child: "PhysicalOperator | None" = None
    #: The pass ``open()`` starts; ``rescan`` advances it.  Every epoch-
    #: dependent draw is a pure function of ``(seed, _epoch)``.
    _epoch = 0

    def seek(self, epoch: int) -> None:
        """Before ``open()``: start at the pass the ``epoch``-th rescan begins.

        How a resumed run re-positions the pipeline — no operator serialises
        a buffer or an RNG state.
        """
        self._epoch = int(epoch)
        if self.child is not None:
            self.child.seek(epoch)

    def open(self) -> None:  # noqa: B027 - optional hook
        """Initialise operator state (ExecInit)."""

    @abstractmethod
    def next(self) -> TrainingTuple | None:
        """Return the next tuple, or ``None`` at end of stream (getNext)."""

    def rescan(self) -> None:  # noqa: B027 - optional hook
        """Reset for another pass (ExecReScan)."""

    def close(self) -> None:  # noqa: B027 - optional hook
        """Release resources."""

    def __iter__(self):
        while True:
            record = self.next()
            if record is None:
                return
            yield record


class SeqScanOperator(PhysicalOperator):
    """Sequential heap scan in page order (the No Shuffle access path)."""

    def __init__(self, table: TableInfo, ctx: RuntimeContext):
        self.table = table
        self.ctx = ctx
        self._page = 0
        self._slot = 0
        self._current: list[TrainingTuple] = []

    def open(self) -> None:
        self._page = 0
        self._slot = 0
        self._current = []

    def next(self) -> TrainingTuple | None:
        while self._slot >= len(self._current):
            if self._page >= self.table.heap.n_pages:
                return None
            try:
                tuples, hit = self.table.pool.get_page_traced(self._page)
            except ReadExhaustedError as exc:
                raise StorageError(
                    f"seq scan of table {self.table.name!r}: {exc}"
                ) from exc
            page_bytes = self.table.heap.pages[self._page].used_bytes
            if hit:
                self.ctx.charge_memory_read(page_bytes)
            else:
                # Sequential page reads: no per-page positioning cost beyond
                # the stream itself; charge as sequential transfer.
                self.ctx.charge_device_read(page_bytes, random=False)
            self._current = tuples
            self._slot = 0
            self._page += 1
        record = self._current[self._slot]
        self._slot += 1
        return record

    def rescan(self) -> None:
        self.open()


class FilteredSeqScanOperator(PhysicalOperator):
    """Sequential heap scan that emits only the qualifying tuples.

    The No-Shuffle access path under a ``WHERE``: every page is still
    streamed (and charged) in order — a scan cannot skip pages it has not
    read — but only the tuples at the qualifying positions flow upstream.
    The emitted sequence equals a plain :class:`SeqScanOperator` over a
    materialised copy of the filtered subset.
    """

    def __init__(self, table: TableInfo, ctx: RuntimeContext, positions):
        self.table = table
        self.ctx = ctx
        # page_id -> qualifying slots, ascending (heap order is page-major,
        # slot-ascending, so sorted positions land here already ordered).
        self._slots_by_page: dict[int, list[int]] = {}
        for position in positions:
            rid = table.heap.rid_of(int(position))
            self._slots_by_page.setdefault(rid.page_id, []).append(rid.slot)
        self._page = 0
        self._pending: list[TrainingTuple] = []
        self._slot = 0

    def open(self) -> None:
        self._page = 0
        self._pending = []
        self._slot = 0

    def next(self) -> TrainingTuple | None:
        while self._slot >= len(self._pending):
            if self._page >= self.table.heap.n_pages:
                return None
            page_id = self._page
            self._page += 1
            try:
                tuples, hit = self.table.pool.get_page_traced(page_id)
            except ReadExhaustedError as exc:
                raise StorageError(
                    f"filtered seq scan of table {self.table.name!r}: {exc}"
                ) from exc
            page_bytes = self.table.heap.pages[page_id].used_bytes
            if hit:
                self.ctx.charge_memory_read(page_bytes)
            else:
                self.ctx.charge_device_read(page_bytes, random=False)
            wanted = self._slots_by_page.get(page_id)
            if not wanted:
                continue
            row_of = self.table.heap.slot_row_map(page_id)
            self._pending = [tuples[row_of[slot]] for slot in wanted]
            self._slot = 0
        record = self._pending[self._slot]
        self._slot += 1
        return record

    def rescan(self) -> None:
        self.open()


class BlockShuffleOperator(PhysicalOperator):
    """Random block-order scan (Section 6.2 operator 1).

    Computes ``BN = page_num · page_size / block_size``, shuffles the block
    ids, and streams the tuples of each block's pages.  A fresh shuffle is
    drawn on every ``rescan`` (one per epoch).

    ``within`` selects the in-block traversal (the Learning-to-Shuffle
    refinements): ``"keep"`` streams page order (plain block shuffle),
    ``"shuffle"`` permutes each loaded block's tuples in memory
    (Block-Reshuffle — no extra I/O, one block resident at a time), and
    ``"reverse"`` flips the block's tuple order on odd epochs
    (Block-Reversal).
    """

    def __init__(
        self,
        table: TableInfo,
        ctx: RuntimeContext,
        block_bytes: int,
        seed: int = 0,
        within: str = "keep",
    ):
        if within not in ("keep", "shuffle", "reverse"):
            raise ValueError(f"unknown within-block mode {within!r}")
        self.table = table
        self.ctx = ctx
        self.block_bytes = int(block_bytes)
        self.seed = int(seed)
        self.within = within
        self._block_order: np.ndarray = np.empty(0, dtype=np.int64)
        self._block_pos = 0
        self._pending: list[TrainingTuple] = []
        self._slot = 0

    @property
    def n_blocks(self) -> int:
        return self.table.heap.n_blocks(self.block_bytes)

    def open(self) -> None:
        rng = epoch_rng(self.seed, self._epoch)
        self._block_order = rng.permutation(self.n_blocks)
        self._block_pos = 0
        self._pending = []
        self._slot = 0

    def _load_next_block(self) -> bool:
        if self._block_pos >= self._block_order.size:
            return False
        block_id = int(self._block_order[self._block_pos])
        self._block_pos += 1
        tuples: list[TrainingTuple] = []
        device_bytes = 0.0
        memory_bytes = 0.0
        with obs.span("db.block", block_id=block_id) as sp:
            for page_id in self.table.heap.block_pages(block_id, self.block_bytes):
                try:
                    page_tuples, hit = self.table.pool.get_page_traced(page_id)
                except ReadExhaustedError as exc:
                    raise StorageError(
                        f"block shuffle scan of table {self.table.name!r}, "
                        f"block {block_id}: {exc}"
                    ) from exc
                page_bytes = self.table.heap.pages[page_id].used_bytes
                if hit:
                    memory_bytes += page_bytes
                else:
                    device_bytes += page_bytes
                tuples.extend(page_tuples)
            sp.set(n_tuples=len(tuples), device_bytes=device_bytes)
        # One random positioning per block; the pages inside a block are
        # contiguous, so they transfer at sequential bandwidth.
        if device_bytes:
            self.ctx.charge_device_read(device_bytes, random=True)
        if memory_bytes:
            self.ctx.charge_memory_read(memory_bytes)
        obs.inc("db.blocks_loaded")
        if self.within == "shuffle":
            rng = derive_rng(self.seed, self._epoch, BLOCK_RESHUFFLE_STREAM, block_id)
            tuples = [tuples[i] for i in rng.permutation(len(tuples))]
        elif self.within == "reverse" and self._epoch % 2:
            tuples.reverse()
        self._pending = tuples
        self._slot = 0
        return True

    def next(self) -> TrainingTuple | None:
        while self._slot >= len(self._pending):
            if not self._load_next_block():
                return None
        record = self._pending[self._slot]
        self._slot += 1
        return record

    def rescan(self) -> None:
        self._epoch += 1
        self.open()


class RidBlockShuffleOperator(PhysicalOperator):
    """Random block-order scan of a *filtered subset* addressed by RIDs.

    The ``TRAIN ... WHERE`` access path.  ``partition`` is a
    :class:`~repro.db.where.SubsetPartition` — the virtual page/block
    layout a materialised copy of the subset would have — so the epoch
    permutation (same ``epoch_rng`` stream as :class:`BlockShuffleOperator`)
    and the within-block visit order are *bit-identical* to running plain
    CorgiPile over that copy.  Only the physical fetch differs:

    * ``fetch="index"`` — resolve each virtual block's tuples through the
      buffer pool page by page; a pool miss charges one random positioning
      per contiguous run of missed heap pages (index-ordered block fetch);
    * ``fetch="scan"`` — stream the *whole* heap once per epoch at
      sequential speed (the fallback when selectivity is too high for the
      index to win), after which every fetch is memory-resident.
    """

    def __init__(
        self,
        table: TableInfo,
        ctx: RuntimeContext,
        partition,
        seed: int = 0,
        fetch: str = "index",
    ):
        if fetch not in ("index", "scan"):
            raise ValueError(f"unknown fetch mode {fetch!r}")
        self.table = table
        self.ctx = ctx
        self.partition = partition
        self.seed = int(seed)
        self.fetch = fetch
        self._block_order: np.ndarray = np.empty(0, dtype=np.int64)
        self._block_pos = 0
        self._pending: list[TrainingTuple] = []
        self._slot = 0
        # Epoch-local decoded-page cache: many virtual blocks can touch the
        # same heap page; fetch (and charge) it once per epoch.
        self._page_cache: dict[int, tuple[TrainingTuple, ...]] = {}
        self._row_maps: dict[int, dict[int, int]] = {}
        # Physical counters for the bench gate: blocks/pages actually
        # touched, and pages that went to the device.
        self.blocks_loaded = 0
        self.pages_fetched = 0
        self.device_page_reads = 0

    @property
    def n_blocks(self) -> int:
        return self.partition.n_blocks

    def open(self) -> None:
        rng = epoch_rng(self.seed, self._epoch)
        self._block_order = rng.permutation(self.n_blocks)
        self._block_pos = 0
        self._pending = []
        self._slot = 0
        self._page_cache = {}
        if self.fetch == "scan":
            self._scan_whole_heap()

    def _scan_whole_heap(self) -> None:
        heap = self.table.heap
        for page_id in range(heap.n_pages):
            try:
                tuples, hit = self.table.pool.get_page_traced(page_id)
            except ReadExhaustedError as exc:
                raise StorageError(
                    f"filtered block scan of table {self.table.name!r}: {exc}"
                ) from exc
            page_bytes = heap.pages[page_id].used_bytes
            if hit:
                self.ctx.charge_memory_read(page_bytes)
            else:
                self.ctx.charge_device_read(page_bytes, random=False)
            self._page_cache[page_id] = tuples
            self.pages_fetched += 1
            if not hit:
                self.device_page_reads += 1

    def _fetch_pages(self, block) -> None:
        """Index path: pull the block's heap pages through the pool."""
        heap = self.table.heap
        missed: list[int] = []
        device_bytes = 0.0
        memory_bytes = 0.0
        for page_id in block.page_ids:
            if page_id in self._page_cache:
                continue
            try:
                tuples, hit = self.table.pool.get_page_traced(page_id)
            except ReadExhaustedError as exc:
                raise StorageError(
                    f"index block fetch of table {self.table.name!r}, "
                    f"block {block.block_id}: {exc}"
                ) from exc
            self._page_cache[page_id] = tuples
            self.pages_fetched += 1
            page_bytes = heap.pages[page_id].used_bytes
            if hit:
                memory_bytes += page_bytes
            else:
                missed.append(page_id)
                device_bytes += page_bytes
                self.device_page_reads += 1
        if missed:
            # One random positioning per contiguous run of missed pages;
            # within a run the transfer is sequential.
            runs = 1 + sum(
                1 for a, b in zip(missed, missed[1:]) if b != a + 1
            )
            self.ctx.charge_device_read(device_bytes / runs, random=True, count=runs)
        if memory_bytes:
            self.ctx.charge_memory_read(memory_bytes)

    def _load_next_block(self) -> bool:
        if self._block_pos >= self._block_order.size:
            return False
        block = self.partition.blocks[int(self._block_order[self._block_pos])]
        self._block_pos += 1
        with obs.span("db.rid_block", block_id=block.block_id) as sp:
            if self.fetch == "index":
                self._fetch_pages(block)
            tuples: list[TrainingTuple] = []
            for _position, rid in block.entries:
                row_of = self._row_maps.get(rid.page_id)
                if row_of is None:
                    row_of = self.table.heap.slot_row_map(rid.page_id)
                    self._row_maps[rid.page_id] = row_of
                tuples.append(self._page_cache[rid.page_id][row_of[rid.slot]])
            sp.set(n_tuples=len(tuples), n_pages=len(block.page_ids))
        obs.inc("db.blocks_loaded")
        self.blocks_loaded += 1
        self._pending = tuples
        self._slot = 0
        return True

    def next(self) -> TrainingTuple | None:
        while self._slot >= len(self._pending):
            if not self._load_next_block():
                return None
        record = self._pending[self._slot]
        self._slot += 1
        return record

    def rescan(self) -> None:
        self._epoch += 1
        self.open()


class TupleShuffleOperator(PhysicalOperator):
    """Buffer a batch of blocks' tuples and shuffle them (operator 2).

    Pulls from its child until the buffer holds ``buffer_tuples`` tuples,
    shuffles the buffer, then emits the shuffled tuples one by one.  Each
    completed fill is reported to the runtime context so the executor can
    overlap the next fill with SGD compute (double buffering, Section 6.3).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        ctx: RuntimeContext,
        buffer_tuples: int,
        seed: int = 0,
    ):
        if buffer_tuples <= 0:
            raise ValueError("buffer_tuples must be positive")
        self.child = child
        self.ctx = ctx
        self.buffer_tuples = int(buffer_tuples)
        self.seed = int(seed)
        self._drained: list[TrainingTuple] = []
        self._slot = 0
        self._exhausted = False

    def open(self) -> None:
        self._rng = stream_rng(self.seed, self._epoch, TUPLE_SHUFFLE_STREAM)
        self.child.open()
        self._drained = []
        self._slot = 0
        self._exhausted = False

    def _refill(self) -> bool:
        if self._exhausted:
            return False
        buffer: ShuffleBuffer[TrainingTuple] = ShuffleBuffer(self.buffer_tuples, self._rng)
        with obs.span("db.fill") as sp:
            while not buffer.full:
                record = self.child.next()
                if record is None:
                    self._exhausted = True
                    break
                buffer.add(record)
            n = len(buffer)
            sp.set(n_tuples=n)
        if n == 0:
            return False
        self._drained = buffer.shuffle_and_drain()
        self._slot = 0
        self.ctx.end_fill(n)
        return True

    def next(self) -> TrainingTuple | None:
        while self._slot >= len(self._drained):
            if not self._refill():
                return None
        record = self._drained[self._slot]
        self._slot += 1
        return record

    def rescan(self) -> None:
        self._epoch += 1
        self._rng = stream_rng(self.seed, self._epoch, TUPLE_SHUFFLE_STREAM)
        self.child.rescan()
        self._drained = []
        self._slot = 0
        self._exhausted = False


class PassThroughAccountingOperator(PhysicalOperator):
    """Counts tuples into fills without shuffling (for No-Shuffle plans).

    No-Shuffle pipelines have no TupleShuffle, but the timing model still
    needs fill boundaries to pair I/O with compute; this wraps the scan and
    closes a "fill" every ``chunk_tuples`` tuples.
    """

    def __init__(self, child: PhysicalOperator, ctx: RuntimeContext, chunk_tuples: int):
        if chunk_tuples <= 0:
            raise ValueError("chunk_tuples must be positive")
        self.child = child
        self.ctx = ctx
        self.chunk_tuples = int(chunk_tuples)
        self._since_fill = 0

    def open(self) -> None:
        self.child.open()
        self._since_fill = 0

    def next(self) -> TrainingTuple | None:
        record = self.child.next()
        if record is None:
            if self._since_fill:
                self.ctx.end_fill(self._since_fill)
                self._since_fill = 0
            return None
        self._since_fill += 1
        if self._since_fill >= self.chunk_tuples:
            self.ctx.end_fill(self._since_fill)
            self._since_fill = 0
        return record

    def rescan(self) -> None:
        self.child.rescan()
        self._since_fill = 0


class SGDOperator:
    """The root operator: runs SGD epochs by pulling tuples (operator 3).

    Not a tuple-producing iterator — like the paper's SGD operator it drives
    the pipeline, updates the model per tuple (or per mini-batch), and uses
    ``rescan`` on its child between epochs.

    The job seam sits between *update units* — one fused run, one
    mini-batch, or ``fuse_chunk`` unfused tuples: there ``checkpoint`` (a
    :class:`~repro.ml.trainer.CheckpointConfig`) is saved on its cadence and
    ``should_stop`` is probed.  A run whose checkpoint file exists resumes
    from it: the pipeline is re-positioned at the stored epoch (``seek``)
    and the ``cursor`` tuples already applied are pulled and discarded, so
    every operator — the stateful-RNG ones included — is exactly where the
    interrupted run left it, and the remaining updates are bit-identical.
    ``knobs`` are the plan facts that pin the visit order; a checkpoint
    taken under different ones is refused.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        ctx: RuntimeContext,
        model: SupervisedModel,
        schedule,
        epochs: int,
        batch_size: int = 1,
        optimizer=None,
        fused: bool = False,
        fuse_chunk: int = 256,
        checkpoint: CheckpointConfig | None = None,
        should_stop=None,
        knobs: dict | None = None,
    ):
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if fuse_chunk <= 0:
            raise ValueError("fuse_chunk must be positive")
        self.child = child
        self.ctx = ctx
        self.model = model
        self.schedule = schedule
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.optimizer = optimizer
        # Fused mode collates pulled tuples into runs of ``fuse_chunk`` and
        # applies the models' vectorised ``step_block`` kernel — still one
        # model update per tuple in pipeline order, so the visit-order
        # semantics of the Volcano plan are unchanged.
        self.fused = bool(fused)
        self.fuse_chunk = int(fuse_chunk)
        self.checkpoint = checkpoint
        self.should_stop = should_stop
        self.knobs = {
            "mode": "sgd-operator",
            "model": type(model).__name__,
            "batch_size": self.batch_size,
            "fused": self.fused,
            "fuse_chunk": self.fuse_chunk,
            **(knobs or {}),
        }
        self.epoch_wall_times: list[float] = []
        # Measured (real) per-epoch walls, alongside the simulated ones —
        # the advisor's "observed" feedback channel.
        self.measured_wall_times: list[float] = []
        self._tuples_seen = 0

    def _run_epoch(self, epoch: int, lr: float, cursor: int, history) -> None:
        """Apply the epoch's tuples after the first ``cursor``, unit by unit."""
        from ..core.dataloader import collate

        per_tuple = self.batch_size == 1 and self.optimizer is None
        unit = self.fuse_chunk if per_tuple else self.batch_size

        def apply(pending: list[TrainingTuple]) -> None:
            if not per_tuple:
                batch = collate(pending)
                self.optimizer.step(self.model.gradient(batch.X, batch.y), lr)
            elif self.fused:
                run = collate(pending)
                self.model.step_block(run.X, run.y, lr)
            else:
                for record in pending:
                    self.model.step_example(record.features, record.label, lr)
            self._tuples_seen += len(pending)

        for _ in range(cursor):  # already applied before the interruption
            self.child.next()
        every = self.checkpoint.every_tuples if self.checkpoint is not None else 0
        since_checkpoint = 0
        pending: list[TrainingTuple] = []
        for record in self.child:
            pending.append(record)
            if len(pending) < unit:
                continue
            apply(pending)
            pending = []
            cursor += unit
            since_checkpoint += unit
            if 0 < every <= since_checkpoint:
                self._save(epoch, cursor, history)
                since_checkpoint = 0
            if self.should_stop is not None and self.should_stop():
                raise TrainInterrupted(f"stopped in epoch {epoch} after {cursor} tuples")
        if pending:
            apply(pending)

    def _save(self, epoch: int, cursor: int, history: ConvergenceHistory) -> None:
        if self.checkpoint is None:
            return
        save_checkpoint(
            self.checkpoint.path,
            self.model,
            epoch=epoch,
            cursor=cursor,
            tuples_seen=self._tuples_seen,
            optimizer_state=self.optimizer.state_dict() if self.optimizer is not None else {},
            history=[asdict(r) for r in history.records],
            # The finished epochs' walls ride along so a resumed run still
            # reports one wall per history record.
            meta={
                **self.knobs,
                "epoch_wall_times": self.epoch_wall_times,
                "measured_wall_times": self.measured_wall_times,
            },
        )

    def _resume(self, history: ConvergenceHistory) -> tuple[int, int]:
        """``(epoch, cursor)`` to start from: the checkpoint's, if there is one."""
        if self.checkpoint is None or not Path(self.checkpoint.path).exists():
            return 0, 0
        state = restore_run(
            self.checkpoint.path, self.model, self.optimizer, history, self.knobs
        )
        self._tuples_seen = state.tuples_seen
        self.epoch_wall_times = list(state.meta["epoch_wall_times"])
        self.measured_wall_times = list(state.meta["measured_wall_times"])
        return state.epoch, state.cursor

    def execute(self, evaluate) -> ConvergenceHistory:
        """Run all epochs; ``evaluate(epoch, lr, tuples_seen)`` records metrics.

        An unrecoverable storage fault surfaces as
        :class:`~repro.db.errors.StorageError` with partial progress
        attached (completed epochs' history, tuples applied); the pipeline
        is always closed, even on that path.
        """
        history = ConvergenceHistory(strategy="in-db", model=type(self.model).__name__)
        start_epoch, cursor = self._resume(history)
        self.child.seek(start_epoch)
        self.child.open()
        try:
            # Even a crash before the first cadence point leaves a
            # resumable file behind.
            self._save(start_epoch, cursor, history)
            for epoch in range(start_epoch, self.epochs):
                lr = float(self.schedule(epoch))
                with obs.span("db.epoch", epoch=epoch, lr=lr) as sp:
                    t0 = time.perf_counter()
                    self._run_epoch(epoch, lr, cursor, history)
                    cursor = 0
                    measured_wall = time.perf_counter() - t0
                    simulated_wall = self.ctx.epoch_wall_time()
                    sp.set(tuples_seen=self._tuples_seen, simulated_wall_s=simulated_wall)
                self.epoch_wall_times.append(simulated_wall)
                self.measured_wall_times.append(measured_wall)
                obs.inc("db.epochs")
                history.append(evaluate(epoch, lr, self._tuples_seen))
                self._save(epoch + 1, 0, history)
                if epoch + 1 < self.epochs:
                    self.child.rescan()
        except StorageError as exc:
            exc.epochs_completed = history.epochs
            exc.tuples_seen = self._tuples_seen
            exc.partial = history
            raise
        finally:
            self.child.close()
        return history


class PermutedScanOperator(PhysicalOperator):
    """Scan tuples in a fresh random permutation per pass.

    Two uses, selected by ``charge``:

    * ``"sort"`` — the Epoch Shuffle access path: the realistic
      implementation re-sorts the table before each epoch, so the operator
      charges an external-sort pass (sequential read + write passes over
      the whole table) at the start of every pass and then emits tuples at
      the buffer pool's speed;
    * ``"random_tuple"`` — the vanilla-SGD access path of Section 4.2: one
      random device access per tuple on a buffer-pool miss, the
      catastrophic left end of Figure 20.
    """

    SORT_PASSES = 4

    def __init__(self, table, ctx, seed: int = 0, charge: str = "sort"):
        if charge not in ("sort", "random_tuple"):
            raise ValueError(f"unknown charge mode {charge!r}")
        self.table = table
        self.ctx = ctx
        self.seed = int(seed)
        self.charge = charge
        self._perm = np.empty(0, dtype=np.int64)
        self._pos = 0
        # position -> (page_id, slot) resolved once from the heap layout.
        self._page_of: list[int] = []
        self._slot_of: list[int] = []
        for page in table.heap.pages:
            for slot in range(page.n_tuples):
                self._page_of.append(page.page_id)
                self._slot_of.append(slot)

    def open(self) -> None:
        rng = epoch_rng(self.seed, self._epoch)
        self._perm = rng.permutation(self.table.n_tuples)
        self._pos = 0
        if self.charge == "sort":
            total = float(self.table.heap.payload_bytes)
            for p in range(self.SORT_PASSES):
                self.ctx.charge_device_read(total, random=False)

    def next(self) -> TrainingTuple | None:
        if self._pos >= self._perm.size:
            return None
        position = int(self._perm[self._pos])
        self._pos += 1
        page_id = self._page_of[position]
        try:
            tuples, hit = self.table.pool.get_page_traced(page_id)
        except ReadExhaustedError as exc:
            raise StorageError(
                f"permuted scan of table {self.table.name!r}: {exc}"
            ) from exc
        page_bytes = self.table.heap.pages[page_id].used_bytes
        if self.charge == "random_tuple":
            if hit:
                self.ctx.charge_memory_read(self.table.tuple_bytes)
            else:
                self.ctx.charge_device_read(page_bytes, random=True)
        else:
            self.ctx.charge_memory_read(self.table.tuple_bytes)
        return tuples[self._slot_of[position]]

    def rescan(self) -> None:
        self._epoch += 1
        self.open()


class SlidingWindowOperator(PhysicalOperator):
    """TensorFlow's sliding-window sampling as a Volcano operator.

    Keeps a window of tuples pulled from the child; each ``next()`` returns
    a uniformly random window slot and refills the slot from the child;
    when the child is exhausted the window drains in random order.  Pure
    sequential I/O underneath — and, exactly as in Section 3.3, a clustered
    child stream stays essentially clustered.
    """

    def __init__(self, child: PhysicalOperator, window_tuples: int, seed: int = 0):
        if window_tuples <= 0:
            raise ValueError("window_tuples must be positive")
        self.child = child
        self.window_tuples = int(window_tuples)
        self.seed = int(seed)
        self._window: list[TrainingTuple] = []
        self._primed = False

    def open(self) -> None:
        self._rng = stream_rng(self.seed, self._epoch, SLIDING_WINDOW_STREAM)
        self.child.open()
        self._window = []
        self._primed = False

    def _prime(self) -> None:
        while len(self._window) < self.window_tuples:
            record = self.child.next()
            if record is None:
                break
            self._window.append(record)
        self._primed = True

    def next(self) -> TrainingTuple | None:
        if not self._primed:
            self._prime()
        if not self._window:
            return None
        slot = int(self._rng.integers(len(self._window)))
        record = self._window[slot]
        incoming = self.child.next()
        if incoming is None:
            # Drain phase: remove the emitted slot.
            self._window[slot] = self._window[-1]
            self._window.pop()
        else:
            self._window[slot] = incoming
        return record

    def rescan(self) -> None:
        self._epoch += 1
        self._rng = stream_rng(self.seed, self._epoch, SLIDING_WINDOW_STREAM)
        self.child.rescan()
        self._window = []
        self._primed = False


class MultiplexedReservoirOperator(PhysicalOperator):
    """Bismarck's MRS shuffle as a Volcano operator (Section 3.4).

    One logical thread scans the child with reservoir sampling (selected
    tuples enter buffer B1, dropped tuples flow to SGD); the other loops
    over a snapshot buffer B2, interleaved every ``mix_interval`` dropped
    tuples.  The epoch emits exactly one tuple per child tuple, so buffered
    tuples can repeat — the data-skew caveat the paper notes.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        buffer_tuples: int,
        seed: int = 0,
        mix_interval: int = 2,
    ):
        if buffer_tuples <= 0:
            raise ValueError("buffer_tuples must be positive")
        if mix_interval <= 0:
            raise ValueError("mix_interval must be positive")
        self.child = child
        self.buffer_tuples = int(buffer_tuples)
        self.mix_interval = int(mix_interval)
        self.seed = int(seed)
        self._reset_state()

    def _reset_state(self) -> None:
        self._rng = stream_rng(self.seed, self._epoch, MRS_STREAM)
        self._reservoir: list[TrainingTuple] = []
        self._loop_buffer: list[TrainingTuple] = []
        self._scanned = 0
        self._emitted = 0
        self._dropped_since_mix = 0
        self._scan_done = False

    def open(self) -> None:
        self.child.open()
        self._reset_state()

    def _emit_from_loop(self) -> TrainingTuple:
        if not self._loop_buffer:
            self._loop_buffer = list(self._reservoir)
        self._emitted += 1
        return self._loop_buffer[int(self._rng.integers(len(self._loop_buffer)))]

    def next(self) -> TrainingTuple | None:
        while True:
            if self._scan_done:
                if self._emitted >= self._scanned:
                    return None
                return self._emit_from_loop()
            if self._dropped_since_mix >= self.mix_interval:
                self._dropped_since_mix = 0
                # One SGD step per scanned tuple: thread 2 only fills the
                # quota the scan has earned so far.
                if self._reservoir and self._emitted < self._scanned:
                    return self._emit_from_loop()
            record = self.child.next()
            if record is None:
                self._scan_done = True
                continue
            self._scanned += 1
            if len(self._reservoir) < self.buffer_tuples:
                self._reservoir.append(record)
                continue
            j = int(self._rng.integers(self._scanned))
            if j < self.buffer_tuples:
                dropped = self._reservoir[j]
                self._reservoir[j] = record
            else:
                dropped = record
            self._dropped_since_mix += 1
            self._emitted += 1
            return dropped

    def rescan(self) -> None:
        self._epoch += 1
        self.child.rescan()
        self._reset_state()
