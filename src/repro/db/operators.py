"""Volcano-style physical operators (Section 6.2), batch at a time.

The paper adds three operators to PostgreSQL and chains them into a
pull-based pipeline::

    SGDOperator  ←pull←  TupleShuffleOperator  ←pull←  BlockShuffleOperator

Each operator implements ``open() / next_batch() / close() / rescan()``.
What moves between operators is a :class:`~repro.storage.codec.TupleBatch`
— a run of one or more rows **in visit order** — never a single tuple: a
page is decoded in bulk by the buffer pool, a block is one pool call
(``BufferPool.get_run``; a warm block is a kept run, read with no
``concat``, and a cold columnar block a checked run its fill decodes), a
shuffled fill is the fill as read plus its permutation
(:class:`~repro.storage.codec.PermutedBatch`), and the SGD root cuts its
update units straight out of the stream: a unit inside one fill is its
slice of the permutation, applied off the unshuffled fill by index.
``rescan`` is the re-scan mechanism the SGD operator invokes between epochs
(resetting buffers and re-shuffling block ids, like PostgreSQL's
NestedLoopJoin re-scans its inner).

Operators log their physical reads into a
:class:`~repro.db.timing.RuntimeContext`: every heap read is priced by
:func:`_charge_read` (device speed on buffer-pool misses, memory speed on
hits) and the TupleShuffle operator marks buffer-fill boundaries so double
buffering can overlap fill I/O with SGD compute.  The simulated clock
depends on *when* a charge lands relative to those boundaries, which gives
the batch contract its one rule — **the carry rule**: an operator asks its
child for the next batch only when it holds no row it has not yet handed
on (:class:`~repro.storage.codec.RowStream`), so no block is loaded, or
charged, earlier than the row that needs it.

``SeqScanOperator`` is the No-Shuffle access path (MADlib/Bismarck without a
pre-shuffled copy) and is also used to scan a pre-shuffled table.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

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
from ..ml.trainer import (
    CheckpointConfig,
    ConvergenceHistory,
    apply_unit,
    per_tuple_knob,
    resume_state,
    run_epochs,
)
from ..obs import LoaderMetrics
from ..storage.codec import PermutedBatch, RowStream, TupleBatch
from ..storage.retry import ReadExhaustedError
from ..storage.rid import SLOT_MASK, page_runs
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
    "FUSE_CHUNK",
]

#: Rows per per-tuple update unit: the SGD root hands ``step_block`` this
#: many at a time.  The kernels flush their lazy L2 scaling per unit, so the
#: size is part of the bits; it is recorded in every checkpoint.
FUSE_CHUNK = 256


class PhysicalOperator(ABC):
    """The Volcano iterator interface, with the batch as its unit."""

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

    def open(self) -> None:
        """Start pass ``_epoch`` (ExecInit): the child first, then own state."""
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


def _read_failed(table: TableInfo, what: str, exc: ReadExhaustedError) -> StorageError:
    return StorageError(f"{what} of table {table.name!r}: {exc}")


def _read_page(table: TableInfo, page_id: int, what: str) -> tuple[TupleBatch, bool]:
    """One page through the buffer pool: ``(batch, pool hit)``."""
    try:
        return table.pool.get_batch_traced(page_id)
    except ReadExhaustedError as exc:
        raise _read_failed(table, what, exc) from exc


def _charge_read(
    ctx: RuntimeContext, heap, page_ids, hits, seeks: str
) -> tuple[float, float, int]:
    """Price one read on the simulated clock: each page's stored bytes at
    device speed on a pool miss, at memory speed on a hit; returns
    ``(device bytes, memory bytes, random positionings)``.

    ``seeks`` is how the device head reaches the missed bytes: ``"stream"``
    as a sequential transfer (``sequential_time``, which adds one access
    latency per call), ``"block"`` by one random positioning (a block's
    pages are contiguous), ``"runs"`` by one per run of consecutive missed
    page ids.  A page keeps the bytes of every tuple written to it (DELETE
    leaves dead space), so a miss always has bytes to charge.
    """
    pages = heap.pages
    device = memory = 0.0
    runs = last = 0
    for page_id, hit in zip(page_ids, hits):  # in page order: bit-equal sums
        if hit:
            memory += pages[page_id].used_bytes
        else:
            device += pages[page_id].used_bytes
            runs += runs == 0 or page_id != last + 1
            last = page_id
    count = runs if seeks == "runs" else 1
    if runs:
        ctx.charge_device_read(device / count, random=seeks != "stream", count=count)
    if memory:
        ctx.charge_memory_read(memory)
    return device, memory, count if runs and seeks != "stream" else 0


def _stream_page(table: TableInfo, ctx: RuntimeContext, page_id: int, what: str):
    """Read and charge one page of a sequential pass; ``(batch, pool hit)``."""
    batch, hit = _read_page(table, page_id, what)
    _charge_read(ctx, table.heap, (page_id,), (hit,), "stream")
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
        # page_id -> qualifying rows of the page's batch, ascending (sorted
        # positions are ascending RIDs: page-major, slot-ascending).
        # Resolved once per statement.
        heap = table.heap
        rids = heap.rids_at(positions)
        self._rows_by_page = {
            page_id: heap.slot_rows(page_id, rids[lo:hi] & SLOT_MASK)
            for page_id, lo, hi in page_runs(rids)
        }

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
    ids, and emits each block — its pages' batches end to end, one
    ``BufferPool.get_run`` — as one batch.  A fresh shuffle is drawn on
    every ``rescan`` (one per epoch).

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
        self._pages_per_block = table.heap.pages_per_block(self.block_bytes)
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
        heap = self.table.heap
        lo = block_id * self._pages_per_block
        page_ids = range(lo, min(lo + self._pages_per_block, heap.n_pages))
        with obs.span("db.block", block_id=block_id) as sp:
            try:
                block, hits = self.table.pool.get_run(page_ids)
            except ReadExhaustedError as exc:
                what = f"block shuffle scan (block {block_id})"
                raise _read_failed(self.table, what, exc) from exc
            device_bytes = _charge_read(self.ctx, heap, page_ids, hits, "block")[0]
            sp.set(n_tuples=len(block), device_bytes=device_bytes)
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
        # block_id -> its RIDs' rows in the concat of the block's pages;
        # the layout is fixed for the statement, so resolved once per block.
        self._gather: dict[int, np.ndarray] = {}
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
        """Index path: pull the block's heap pages not yet fetched this pass
        through the pool, charged one positioning per run of missed pages."""
        page_ids = [p for p in block.page_ids if p not in self._page_cache]
        what = f"index block fetch (block {block.block_id})"
        hits = []
        for page_id in page_ids:
            self._page_cache[page_id], hit = _read_page(self.table, page_id, what)
            hits.append(hit)
            self.pages_fetched += 1
            self.device_page_reads += not hit
        _charge_read(self.ctx, self.table.heap, page_ids, hits, "runs")

    def _gather_rows(self, block) -> np.ndarray:
        heap = self.table.heap
        rows = np.empty(block.rids.size, dtype=np.int64)
        offset = 0  # the page's first row in the concat of the block's pages
        for page_id, lo, hi in page_runs(block.rids):
            rows[lo:hi] = offset + heap.slot_rows(page_id, block.rids[lo:hi] & SLOT_MASK)
            offset += heap.pages[page_id].n_tuples
        return rows

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


class TupleShuffleOperator(PhysicalOperator):
    """Buffer a batch of blocks' tuples and shuffle them (operator 2).

    A fill pulls child batches until exactly ``buffer_tuples`` rows are
    buffered — the batch that crosses the boundary is cut there and its
    tail carried into the next fill — then draws one ``rng.permutation``
    over the fill, as :meth:`~repro.core.dataset.CorgiPileDataset.fills`
    does for the block-file loaders.  Cold columnar blocks reach the fill
    undecoded (:class:`~repro.storage.columnar.CheckedRun`), and the fill's
    ``concat`` copies them from the pages' bytes in one compiled pass (a
    block a fill boundary cuts is copied by both fills, no block on its
    own).  Each fill is emitted as one batch, the
    rows left where they were read with the permutation beside them (a
    :class:`~repro.storage.codec.PermutedBatch`, gathered only for a reader
    that touches its columns), and reported to the runtime context so the
    executor can overlap the next fill with SGD compute (double buffering,
    Section 6.3).  The section's
    real write thread is this operator behind a prefetcher:
    ``PrefetchLoader(iter(op.next_batch, None), depth=1, stats=op.stats)``
    fills one buffer while the consumer drains the other.  ``stats`` (a
    :class:`~repro.obs.LoaderMetrics` scope) counts the fills and drains;
    without one they go to the session's loader scope.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        ctx: RuntimeContext,
        buffer_tuples: int,
        seed: int = 0,
        stats: LoaderMetrics | None = None,
    ):
        if buffer_tuples <= 0:
            raise ValueError("buffer_tuples must be positive")
        self.child = child
        self.ctx = ctx
        self.buffer_tuples = int(buffer_tuples)
        self.seed = int(seed)
        self.stats = stats

    def _reset(self) -> None:
        self._rng = stream_rng(self.seed, self._epoch, TUPLE_SHUFFLE_STREAM)
        self._stream = RowStream(self.child.next_batch)
        self._exhausted = False

    def _refill(self) -> TupleBatch | None:
        if self._exhausted:
            return None
        with obs.span("db.fill") as sp:
            fill = self._stream.take(self.buffer_tuples)
            sp.set(n_tuples=0 if fill is None else len(fill))
        if fill is None or len(fill) < self.buffer_tuples:
            self._exhausted = True
        if fill is None:
            return None
        n = len(fill)
        fill = PermutedBatch(fill, self._rng.permutation(n))
        stats = self.stats or obs.SESSION_LOADER
        stats.record_buffer_filled(n)
        stats.record_buffer_drained(n)
        self.ctx.end_fill(n)
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
    loop; the operator supplies the *update units* — ``FUSE_CHUNK`` tuples
    for the model's per-tuple ``step_block`` kernel, or one mini-batch, cut
    out of the batch stream at the same row boundaries whatever the batch
    edges are — and keeps what is the pipeline's: ``seek``/``rescan``/
    ``close`` and the two per-epoch wall clocks.  Between units ``checkpoint`` (a
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
        checkpoint: CheckpointConfig | None = None,
        should_stop=None,
        knobs: dict | None = None,
    ):
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if batch_size > 1 and optimizer is None:
            raise ValueError("batch_size > 1 (mini-batch mode) needs an optimizer")
        self.child = child
        self.ctx = ctx
        self.model = model
        self.schedule = schedule
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.optimizer = optimizer
        self.checkpoint = checkpoint
        self.should_stop = should_stop
        self.knobs = {
            "mode": "sgd-operator",
            "model": type(model).__name__,
            "batch_size": self.batch_size,
            "fused": per_tuple_knob(optimizer),
            "fuse_chunk": FUSE_CHUNK,
            **(knobs or {}),
        }
        self.epoch_wall_times: list[float] = []
        # Measured (real) per-epoch walls, alongside the simulated ones —
        # the advisor's "observed" feedback channel.
        self.measured_wall_times: list[float] = []
        self._tuples_seen = 0
        self._opened_epoch = 0

    def _units(self, epoch: int, lr: float, cursor: int, tuples_seen: int):
        """The pass's rows after the first ``cursor``, cut into update units."""
        if epoch != self._opened_epoch:
            self.child.rescan()
        self._tuples_seen = tuples_seen
        unit_rows = FUSE_CHUNK if self.optimizer is None else self.batch_size
        stream = RowStream(self.child.next_batch)
        t0 = time.perf_counter()
        stream.skip(cursor)  # already applied before the interruption
        while (unit := stream.take(unit_rows)) is not None:
            cursor += unit_rows
            # The short tail of the pass has no seam after it.
            full = len(unit) == unit_rows
            # A unit inside one shuffled fill is its rows of the unshuffled
            # fill, applied in order; a straddling one was gathered.
            rows, order = (unit.base, unit.order) if type(unit) is PermutedBatch else (unit, None)
            apply_unit(self.model, self.optimizer, rows.features_matrix(), rows.labels, lr, order)
            yield len(unit), cursor if full else None
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
        state = resume_state(self.checkpoint)
        if state is not None:
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
                knobs=self.knobs,
                meta={
                    "epoch_wall_times": self.epoch_wall_times,
                    "measured_wall_times": self.measured_wall_times,
                },
                checkpoint=self.checkpoint,
                resume=state,
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
        page_id = self._page_of[position]
        page, hit = _read_page(self.table, page_id, "permuted scan")
        if self.charge == "random_tuple" and not hit:  # one page, one seek
            _charge_read(self.ctx, self.table.heap, (page_id,), (hit,), "block")
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
