"""Volcano-style physical operators (Section 6.2), batch at a time.

The paper adds three operators to PostgreSQL and chains them into a
pull-based pipeline::

    SGDOperator  ←pull←  TupleShuffleOperator  ←pull←  BlockShuffleOperator

Each operator implements ``open() / next_batch() / close() / rescan()``.
What moves between operators is a :class:`~repro.storage.codec.TupleBatch`
— a run of one or more rows **in visit order** — never a single tuple: a
page is decoded in bulk by the buffer pool, a block is the ``concat`` of its
pages, a shuffle is one ``take(permutation)``, and the SGD root slices its
update units straight out of the stream.  ``rescan`` is the re-scan
mechanism the SGD operator invokes between epochs (resetting buffers and
re-shuffling block ids, like PostgreSQL's NestedLoopJoin re-scans its
inner).

Operators log their physical reads into a
:class:`~repro.db.timing.RuntimeContext`: the scans charge page reads
(device-speed on buffer-pool misses, memory-speed on hits) and the
TupleShuffle operator marks buffer-fill boundaries so double buffering can
overlap fill I/O with SGD compute.  The simulated clock depends on *when* a
charge lands relative to those boundaries, which gives the batch contract
its one rule — **the carry rule**: an operator asks its child for the next
batch only when it holds no row it has not yet handed on
(:class:`~repro.storage.codec.RowStream`), so no block is loaded, or
charged, earlier than the row that needs it.

``SeqScanOperator`` is the No-Shuffle access path (MADlib/Bismarck without a
pre-shuffled copy) and is also used to scan a pre-shuffled table.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from .. import obs
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
from ..ml.persistence import load_checkpoint
from ..ml.trainer import CheckpointConfig, ConvergenceHistory, run_epochs
from ..storage.codec import RowStream, TrainingTuple, TupleBatch
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
    "shuffled_fill",
]


class PhysicalOperator(ABC):
    """The Volcano iterator interface, with the batch as its unit."""

    child: "PhysicalOperator | None" = None
    #: The pass ``open()`` starts; ``rescan`` advances it.  Every epoch-
    #: dependent draw is a pure function of ``(seed, _epoch)``.
    _epoch = 0
    #: The ``next()`` adapter's place in the last batch it pulled.
    _rows = iter(())

    def seek(self, epoch: int) -> None:
        """Before ``open()``: start at the pass the ``epoch``-th rescan begins.

        How a resumed run re-positions the pipeline — no operator serialises
        a buffer or an RNG state.
        """
        self._epoch = int(epoch)
        if self.child is not None:
            self.child.seek(epoch)

    def open(self) -> None:
        """Start pass ``_epoch`` (ExecInit): the child first, then own state."""
        self._rows = iter(())
        if self.child is not None:
            self.child.open()
        self._reset()

    def _reset(self) -> None:  # noqa: B027 - optional hook
        """(Re)build this operator's own state for pass ``_epoch``."""

    @abstractmethod
    def next_batch(self) -> TupleBatch | None:
        """The next run of >= 1 rows in visit order, or ``None`` at end of pass."""

    def rescan(self) -> None:
        """Reset for the next pass (ExecReScan): ``seek`` one on, ``open``."""
        self.seek(self._epoch + 1)
        self.open()

    def close(self) -> None:  # noqa: B027 - optional hook
        """Release resources."""

    def next(self) -> TrainingTuple | None:
        """Per-tuple adapter over :meth:`next_batch` (getNext).

        For consumers that really want one tuple at a time — the per-tuple
        references in ``tests/test_operator_batches.py`` / ``test_db_operators.py``;
        nothing under ``src/repro`` calls it.  It pulls a batch only once the
        previous one is used up, so it obeys the carry rule too.
        """
        for record in self._rows:
            return record
        batch = self.next_batch()
        if batch is None:
            return None
        self._rows = iter(batch.to_tuples())
        return next(self._rows)

    def __iter__(self):
        return iter(self.next, None)


def _read_page(table: TableInfo, page_id: int, what: str) -> tuple[TupleBatch, bool, int]:
    """One page through the buffer pool: ``(batch, pool hit, stored bytes)``."""
    try:
        batch, hit = table.pool.get_batch_traced(page_id)
    except ReadExhaustedError as exc:
        raise StorageError(f"{what} of table {table.name!r}: {exc}") from exc
    return batch, hit, table.heap.pages[page_id].used_bytes


def _stream_page(table: TableInfo, ctx: RuntimeContext, page_id: int, what: str):
    """Read and charge one page of a sequential pass; ``(batch, pool hit)``.

    Sequential page reads have no per-page positioning cost beyond the
    stream itself: a miss is charged as sequential transfer.
    """
    batch, hit, page_bytes = _read_page(table, page_id, what)
    if hit:
        ctx.charge_memory_read(page_bytes)
    else:
        ctx.charge_device_read(page_bytes, random=False)
    return batch, hit


class SeqScanOperator(PhysicalOperator):
    """Sequential heap scan in page order (the No Shuffle access path)."""

    def __init__(self, table: TableInfo, ctx: RuntimeContext):
        self.table = table
        self.ctx = ctx
        self._page = 0

    def _reset(self) -> None:
        self._page = 0

    def next_batch(self) -> TupleBatch | None:
        while self._page < self.table.heap.n_pages:
            batch, _hit = _stream_page(self.table, self.ctx, self._page, "seq scan")
            self._page += 1
            if len(batch):
                return batch
        return None


class FilteredSeqScanOperator(SeqScanOperator):
    """Sequential heap scan that emits only the qualifying tuples.

    The No-Shuffle access path under a ``WHERE``: every page is still
    streamed (and charged) in order — a scan cannot skip pages it has not
    read — but only the tuples at the qualifying positions flow upstream.
    The emitted sequence equals a plain :class:`SeqScanOperator` over a
    materialised copy of the filtered subset.
    """

    def __init__(self, table: TableInfo, ctx: RuntimeContext, positions):
        super().__init__(table, ctx)
        # page_id -> qualifying rows of the page's batch, ascending (heap
        # order is page-major, slot-ascending, so sorted positions land here
        # already ordered).  Resolved once per statement.
        rows: dict[int, list[int]] = {}
        row_maps: dict[int, dict[int, int]] = {}
        for position in positions:
            rid = table.heap.rid_of(int(position))
            if rid.page_id not in row_maps:
                row_maps[rid.page_id] = table.heap.slot_row_map(rid.page_id)
            rows.setdefault(rid.page_id, []).append(row_maps[rid.page_id][rid.slot])
        self._rows_by_page = {page: np.asarray(r, dtype=np.int64) for page, r in rows.items()}

    def next_batch(self) -> TupleBatch | None:
        while self._page < self.table.heap.n_pages:
            batch, _hit = _stream_page(self.table, self.ctx, self._page, "filtered seq scan")
            wanted = self._rows_by_page.get(self._page)
            self._page += 1
            if wanted is not None:
                return batch.take(wanted)
        return None


class BlockShuffleOperator(PhysicalOperator):
    """Random block-order scan (Section 6.2 operator 1).

    Computes ``BN = page_num · page_size / block_size``, shuffles the block
    ids, and emits each block — the ``concat`` of its pages' batches — as
    one batch.  A fresh shuffle is drawn on every ``rescan`` (one per epoch).

    ``within`` selects the in-block traversal (the Learning-to-Shuffle
    refinements): ``"keep"`` streams page order (plain block shuffle),
    ``"shuffle"`` permutes each loaded block's tuples in memory
    (Block-Reshuffle — no extra I/O, one block resident at a time), and
    ``"reverse"`` flips the block's tuple order on odd epochs
    (Block-Reversal); both are one ``take`` of the block.
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

    @property
    def n_blocks(self) -> int:
        return self.table.heap.n_blocks(self.block_bytes)

    def _reset(self) -> None:
        self._block_order = epoch_rng(self.seed, self._epoch).permutation(self.n_blocks)
        self._block_pos = 0

    def _load_next_block(self) -> TupleBatch | None:
        """The next block in shuffled order (possibly empty after DELETEs)."""
        if self._block_pos >= self._block_order.size:
            return None
        block_id = int(self._block_order[self._block_pos])
        self._block_pos += 1
        pages: list[TupleBatch] = []
        device_bytes = 0.0
        memory_bytes = 0.0
        with obs.span("db.block", block_id=block_id) as sp:
            for page_id in self.table.heap.block_pages(block_id, self.block_bytes):
                batch, hit, page_bytes = _read_page(
                    self.table, page_id, f"block shuffle scan (block {block_id})"
                )
                if hit:
                    memory_bytes += page_bytes
                else:
                    device_bytes += page_bytes
                pages.append(batch)
            block = TupleBatch.concat(pages)
            sp.set(n_tuples=len(block), device_bytes=device_bytes)
        # One random positioning per block; the pages inside a block are
        # contiguous, so they transfer at sequential bandwidth.
        if device_bytes:
            self.ctx.charge_device_read(device_bytes, random=True)
        if memory_bytes:
            self.ctx.charge_memory_read(memory_bytes)
        obs.inc("db.blocks_loaded")
        if self.within == "shuffle":
            rng = derive_rng(self.seed, self._epoch, BLOCK_RESHUFFLE_STREAM, block_id)
            block = block.take(rng.permutation(len(block)))
        elif self.within == "reverse" and self._epoch % 2:
            block = block.take(np.arange(len(block) - 1, -1, -1))
        return block

    def next_batch(self) -> TupleBatch | None:
        while (block := self._load_next_block()) is not None:
            if len(block):
                return block
        return None


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

    A virtual block is emitted as one ``take`` over the ``concat`` of the
    heap pages it touches.
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
        # Epoch-local decoded-page cache: many virtual blocks can touch the
        # same heap page; fetch (and charge) it once per epoch.
        self._page_cache: dict[int, TupleBatch] = {}
        # block_id -> its entries' rows in the concat of the block's pages;
        # the layout is fixed for the statement, so resolved once per block.
        self._gather: dict[int, np.ndarray] = {}
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
        super().open()
        if self.fetch == "scan":  # the pass's one sequential read of the heap
            self._scan_whole_heap()

    def _reset(self) -> None:
        self._block_order = epoch_rng(self.seed, self._epoch).permutation(self.n_blocks)
        self._block_pos = 0
        self._page_cache = {}

    def _scan_whole_heap(self) -> None:
        for page_id in range(self.table.heap.n_pages):
            batch, hit = _stream_page(self.table, self.ctx, page_id, "filtered block scan")
            self._page_cache[page_id] = batch
            self.pages_fetched += 1
            if not hit:
                self.device_page_reads += 1

    def _fetch_pages(self, block) -> None:
        """Index path: pull the block's heap pages through the pool."""
        missed: list[int] = []
        device_bytes = 0.0
        memory_bytes = 0.0
        for page_id in block.page_ids:
            if page_id in self._page_cache:
                continue
            batch, hit, page_bytes = _read_page(
                self.table, page_id, f"index block fetch (block {block.block_id})"
            )
            self._page_cache[page_id] = batch
            self.pages_fetched += 1
            if hit:
                memory_bytes += page_bytes
            else:
                missed.append(page_id)
                device_bytes += page_bytes
                self.device_page_reads += 1
        if missed:
            # One random positioning per contiguous run of missed pages;
            # within a run the transfer is sequential.
            runs = 1 + sum(1 for a, b in zip(missed, missed[1:]) if b != a + 1)
            self.ctx.charge_device_read(device_bytes / runs, random=True, count=runs)
        if memory_bytes:
            self.ctx.charge_memory_read(memory_bytes)

    def _gather_rows(self, block) -> np.ndarray:
        offsets: dict[int, int] = {}
        total = 0
        for page_id in block.page_ids:
            if page_id not in self._row_maps:
                self._row_maps[page_id] = self.table.heap.slot_row_map(page_id)
            offsets[page_id] = total
            total += len(self._row_maps[page_id])
        return np.asarray(
            [offsets[rid.page_id] + self._row_maps[rid.page_id][rid.slot]
             for _position, rid in block.entries],
            dtype=np.int64,
        )

    def _load_next_block(self) -> TupleBatch | None:
        if self._block_pos >= self._block_order.size:
            return None
        block = self.partition.blocks[int(self._block_order[self._block_pos])]
        self._block_pos += 1
        with obs.span("db.rid_block", block_id=block.block_id) as sp:
            if self.fetch == "index":
                self._fetch_pages(block)
            if block.block_id not in self._gather:
                self._gather[block.block_id] = self._gather_rows(block)
            pages = TupleBatch.concat([self._page_cache[p] for p in block.page_ids])
            batch = pages.take(self._gather[block.block_id])
            sp.set(n_tuples=len(batch), n_pages=len(block.page_ids))
        obs.inc("db.blocks_loaded")
        self.blocks_loaded += 1
        return batch

    def next_batch(self) -> TupleBatch | None:
        return self._load_next_block()  # a virtual block is never empty


def shuffled_fill(
    stream: RowStream, buffer_tuples: int, rng: np.random.Generator, **span_attrs
) -> TupleBatch | None:
    """One TupleShuffle fill: buffer, shuffle, hand over (``None`` when dry).

    Pulls child batches until exactly ``buffer_tuples`` rows are buffered —
    the batch that crosses the boundary is cut there and its tail carried by
    ``stream`` into the next fill — then draws one ``rng.permutation`` over
    the fill, as :meth:`~repro.core.dataset.CorgiPileDataset.fills` does for
    the block-file loaders.  The caller records the drain when it hands the
    fill on (the threaded operator does that on its consumer side).
    """
    with obs.span("db.fill", **span_attrs) as sp:
        fill = stream.take(buffer_tuples)
        sp.set(n_tuples=0 if fill is None else len(fill))
    if fill is None:
        return None
    return fill.take(rng.permutation(len(fill)))


class TupleShuffleOperator(PhysicalOperator):
    """Buffer a batch of blocks' tuples and shuffle them (operator 2).

    Each :func:`shuffled_fill` is emitted as one batch and reported to the
    runtime context so the executor can overlap the next fill with SGD
    compute (double buffering, Section 6.3).
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

    def _reset(self) -> None:
        self._rng = stream_rng(self.seed, self._epoch, TUPLE_SHUFFLE_STREAM)
        self._stream = RowStream(self.child.next_batch)
        self._exhausted = False

    def _refill(self) -> TupleBatch | None:
        if self._exhausted:
            return None
        fill = shuffled_fill(self._stream, self.buffer_tuples, self._rng)
        if fill is None or len(fill) < self.buffer_tuples:
            self._exhausted = True
        if fill is not None:
            obs.SESSION_LOADER.record_buffer_drained(len(fill))
            self.ctx.end_fill(len(fill))
        return fill

    def next_batch(self) -> TupleBatch | None:
        return self._refill()


class PassThroughAccountingOperator(PhysicalOperator):
    """Counts tuples into fills without shuffling (for No-Shuffle plans).

    No-Shuffle pipelines have no TupleShuffle, but the timing model still
    needs fill boundaries to pair I/O with compute; this wraps the scan,
    re-chunks its batches at every ``chunk_tuples`` rows and closes a "fill"
    there, so each fill is charged exactly the pages its rows needed.
    """

    def __init__(self, child: PhysicalOperator, ctx: RuntimeContext, chunk_tuples: int):
        if chunk_tuples <= 0:
            raise ValueError("chunk_tuples must be positive")
        self.child = child
        self.ctx = ctx
        self.chunk_tuples = int(chunk_tuples)

    def _reset(self) -> None:
        self._stream = RowStream(self.child.next_batch)
        self._since_fill = 0

    def next_batch(self) -> TupleBatch | None:
        batch = self._stream.pull(self.chunk_tuples - self._since_fill)
        if batch is not None:
            self._since_fill += len(batch)
        if self._since_fill and (batch is None or self._since_fill >= self.chunk_tuples):
            self.ctx.end_fill(self._since_fill)
            self._since_fill = 0
        return batch


class SGDOperator:
    """The root operator: runs SGD epochs by pulling batches (operator 3).

    Not a row-producing iterator — like the paper's SGD operator it drives
    the pipeline, updates the model per tuple (or per mini-batch), and uses
    ``rescan`` on its child between epochs.

    It is a client of :func:`~repro.ml.trainer.run_epochs`, which owns the
    loop; the operator supplies the *update units* — one fused run, one
    mini-batch, or ``fuse_chunk`` unfused tuples, cut out of the batch
    stream at the same row boundaries whatever the batch edges are — and
    keeps what is the pipeline's: ``seek``/``rescan``/``close`` and the two
    per-epoch wall clocks.  Between units ``checkpoint`` (a
    :class:`~repro.ml.trainer.CheckpointConfig`) is saved on its cadence
    and ``should_stop`` is probed.  A run whose checkpoint
    file exists resumes from it: the pipeline is re-positioned at the stored
    epoch (``seek``) and the first ``cursor`` rows of the stream — already
    applied — are pulled and dropped, so every operator — the stateful-RNG
    ones included — is exactly where the interrupted run left it, and the
    remaining updates are bit-identical.  ``knobs`` are the plan facts that
    pin the visit order; a checkpoint taken under different ones is refused.
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
        if batch_size > 1 and optimizer is None:
            raise ValueError("batch_size > 1 (mini-batch mode) needs an optimizer")
        self.child = child
        self.ctx = ctx
        self.model = model
        self.schedule = schedule
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.optimizer = optimizer
        # Fused mode hands runs of ``fuse_chunk`` rows to the models'
        # vectorised ``step_block`` kernel — still one model update per
        # tuple in pipeline order, so the visit-order semantics of the
        # Volcano plan are unchanged.
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
        self._opened_epoch = 0

    def _units(self, epoch: int, cursor: int, tuples_seen: int):
        """The pass's rows after the first ``cursor``, cut into update units."""
        if epoch != self._opened_epoch:
            self.child.rescan()
        self._tuples_seen = tuples_seen
        unit_rows = self.fuse_chunk if self.optimizer is None else self.batch_size
        stream = RowStream(self.child.next_batch)
        t0 = time.perf_counter()
        stream.skip(cursor)  # already applied before the interruption
        while (unit := stream.take(unit_rows)) is not None:
            cursor += unit_rows
            # The short tail of the pass has no seam after it.
            full = len(unit) == unit_rows
            yield unit.features_matrix(), unit.labels, None, cursor if full else None
            self._tuples_seen += len(unit)
            if not full:
                break
        self.measured_wall_times.append(time.perf_counter() - t0)
        self.epoch_wall_times.append(self.ctx.epoch_wall_time())

    def execute(self, evaluate) -> ConvergenceHistory:
        """Run all epochs; ``evaluate(epoch, lr, tuples_seen)`` records metrics.

        An unrecoverable storage fault surfaces as
        :class:`~repro.db.errors.StorageError` with partial progress
        attached (completed epochs' history, tuples applied); the pipeline
        is always closed, even on that path.
        """
        history = ConvergenceHistory(strategy="in-db", model=type(self.model).__name__)
        state = None
        if self.checkpoint is not None and Path(self.checkpoint.path).exists():
            state = load_checkpoint(self.checkpoint.path)
            # The finished epochs' walls ride in the checkpoint so a resumed
            # run still reports one wall per history record.
            self.epoch_wall_times = list(state.meta.get("epoch_wall_times", ()))
            self.measured_wall_times = list(state.meta.get("measured_wall_times", ()))
            self._opened_epoch = state.epoch
        self.child.seek(self._opened_epoch)
        self.child.open()
        try:
            return run_epochs(
                self.model,
                self.optimizer,
                self._units,
                evaluate,
                history=history,
                epochs=self.epochs,
                schedule=self.schedule,
                fused=self.fused,
                knobs=self.knobs,
                meta={
                    "epoch_wall_times": self.epoch_wall_times,
                    "measured_wall_times": self.measured_wall_times,
                },
                checkpoint=self.checkpoint,
                resume_from=state,
                should_stop=self.should_stop,
                span="db.epoch",
            )
        except StorageError as exc:
            exc.epochs_completed = history.epochs
            exc.tuples_seen = self._tuples_seen
            exc.partial = history
            raise
        finally:
            self.child.close()


# The three operators below draw one bounded random integer per tuple, from
# a range that depends on the draws before it; vectorising them would change
# the index stream, hence the visit order.  They keep the per-tuple draw loop
# verbatim and run it over one-row slices of the child's batches, emitting
# what a loop produced before it next has to go to the child (the carry
# rule: the fill a page is charged to must not move).


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

    Every tuple is its own charged access, so every batch is one row.
    """

    SORT_PASSES = 4

    def __init__(self, table, ctx, seed: int = 0, charge: str = "sort"):
        if charge not in ("sort", "random_tuple"):
            raise ValueError(f"unknown charge mode {charge!r}")
        self.table = table
        self.ctx = ctx
        self.seed = int(seed)
        self.charge = charge
        # position -> (page_id, row) resolved once from the heap layout.
        self._page_of: list[int] = []
        self._row_of: list[int] = []
        for page in table.heap.pages:
            self._page_of.extend([page.page_id] * page.n_tuples)
            self._row_of.extend(range(page.n_tuples))

    def _reset(self) -> None:
        self._perm = epoch_rng(self.seed, self._epoch).permutation(self.table.n_tuples)
        self._pos = 0
        if self.charge == "sort":
            total = float(self.table.heap.payload_bytes)
            for _ in range(self.SORT_PASSES):
                self.ctx.charge_device_read(total, random=False)

    def next_batch(self) -> TupleBatch | None:
        if self._pos >= self._perm.size:
            return None
        position = int(self._perm[self._pos])
        self._pos += 1
        page, hit, page_bytes = _read_page(self.table, self._page_of[position], "permuted scan")
        if self.charge == "random_tuple" and not hit:
            self.ctx.charge_device_read(page_bytes, random=True)
        else:
            self.ctx.charge_memory_read(self.table.tuple_bytes)
        row = self._row_of[position]
        return page.slice(row, row + 1)


class SlidingWindowOperator(PhysicalOperator):
    """TensorFlow's sliding-window sampling as a Volcano operator.

    Keeps a window of tuples pulled from the child; each emitted tuple is a
    uniformly random window slot, refilled from the child; when the child
    is exhausted the window drains in random order.  Pure sequential I/O
    underneath — and, exactly as in Section 3.3, a clustered child stream
    stays essentially clustered.
    """

    def __init__(self, child: PhysicalOperator, window_tuples: int, seed: int = 0):
        if window_tuples <= 0:
            raise ValueError("window_tuples must be positive")
        self.child = child
        self.window_tuples = int(window_tuples)
        self.seed = int(seed)

    def _reset(self) -> None:
        self._rng = stream_rng(self.seed, self._epoch, SLIDING_WINDOW_STREAM)
        self._stream = RowStream(self.child.next_batch)
        self._window: list[TupleBatch] = []  # one-row batches
        self._primed = False
        self._draining = False

    def next_batch(self) -> TupleBatch | None:
        if not self._primed:  # nothing to hand on yet, so pulls are free
            while len(self._window) < self.window_tuples:
                row = self._stream.pull(1)
                if row is None:
                    self._draining = True
                    break
                self._window.append(row)
            self._primed = True
        out: list[TupleBatch] = []
        while self._window:
            if out and not self._draining and self._stream.at_edge:
                break  # hand these on before the pull that may charge I/O
            slot = int(self._rng.integers(len(self._window)))
            out.append(self._window[slot])
            incoming = None if self._draining else self._stream.pull(1)
            if incoming is None:
                # Drain phase: remove the emitted slot.
                self._draining = True
                self._window[slot] = self._window[-1]
                self._window.pop()
            else:
                self._window[slot] = incoming
        return TupleBatch.concat(out) if out else None


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

    def _reset(self) -> None:
        self._rng = stream_rng(self.seed, self._epoch, MRS_STREAM)
        self._stream = RowStream(self.child.next_batch)
        self._reservoir: list[TupleBatch] = []  # one-row batches
        self._loop_buffer: list[TupleBatch] = []
        self._scanned = 0
        self._emitted = 0
        self._dropped_since_mix = 0
        self._scan_done = False

    def _from_loop(self) -> TupleBatch:
        if not self._loop_buffer:
            self._loop_buffer = list(self._reservoir)
        self._emitted += 1
        return self._loop_buffer[int(self._rng.integers(len(self._loop_buffer)))]

    def next_batch(self) -> TupleBatch | None:
        out: list[TupleBatch] = []
        while True:
            if self._scan_done:
                if self._emitted >= self._scanned:
                    break
                out.append(self._from_loop())
                continue
            if self._dropped_since_mix >= self.mix_interval:
                self._dropped_since_mix = 0
                # One SGD step per scanned tuple: thread 2 only fills the
                # quota the scan has earned so far.
                if self._reservoir and self._emitted < self._scanned:
                    out.append(self._from_loop())
                    continue
            if out and self._stream.at_edge:
                break  # hand these on before the pull that may charge I/O
            record = self._stream.pull(1)
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
            out.append(dropped)
        return TupleBatch.concat(out) if out else None
