"""The one TRAIN planner: ``physical_plan`` decides, everything else obeys.

Section 6 integrates CorgiPile as one plan shape — BlockShuffle →
TupleShuffle → SGD — that the planner chooses once and the executor then
runs.  :func:`physical_plan` is that planner.  It is a pure function of the
typed :class:`~repro.db.spec.TrainSpec`, the catalog table, the device, the
compute profile and the table's κ history, and it returns a
:class:`PhysicalPlan`: the resolved strategy with the advisor / WHERE
decision documents, the operator tree as data, the buffer and block
geometry, the setup charge, and which of the two executors runs it —

* ``"heap"``      the Volcano pipeline over the table's heap file
  (``MiniDB._run_heap`` instantiates the tree's operators);
* ``"blockfile"`` sharded CorgiPile over a materialised block file
  (:class:`~repro.parallel.ParallelTrainer` for ``workers > 1``,
  :class:`~repro.parallel.HopperEngine` for ``grid``).

``EXPLAIN`` renders the plan (:func:`repro.db.explain.explain_train_plan`) and the
engine runs it — inline, from the CLI, or as a serve job on the daemon's
private engine — so no entry point can disagree with another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..shuffle.base import EXTERNAL_SORT_PASSES
from ..storage.iomodel import DeviceModel, device_by_name
from . import where as _where  # via the module, so a tracer's wrappers are hit
from .advisor import AdvisorDecision, advise_strategy
from .errors import EngineError, UnsupportedLayoutError
from .spec import TrainSpec

__all__ = ["STRATEGIES", "WHERE_STRATEGIES", "PlanNode", "PhysicalPlan", "physical_plan"]

STRATEGIES = (
    "corgipile",
    "corgipile_single_buffer",
    "corgi2",
    "block_only",
    "block_reshuffle",
    "block_reversal",
    "no_shuffle",
    "shuffle_once",
    "epoch_shuffle",
    "random_access",
    "sliding_window",
    "mrs",
)

# Strategies whose access path can run over a filtered RID subset.
WHERE_STRATEGIES = (
    "corgipile",
    "corgipile_single_buffer",
    "block_only",
    "no_shuffle",
)

# Strategies that fetch single tuples by RID (page, slot).
RID_STRATEGIES = ("epoch_shuffle", "random_access")


def fmt_bytes(n: float) -> str:
    if n >= 1024**2:
        return f"{n / 1024**2:.1f}MB"
    if n >= 1024:
        return f"{n / 1024:.1f}KB"
    return f"{n:.0f}B"


@dataclass(frozen=True)
class PlanNode:
    """One operator of the tree: what the executor builds and EXPLAIN prints."""

    op: str
    #: The physical parameters EXPLAIN shows in parentheses.
    detail: str = ""
    #: Operator constructor arguments beyond ``(table, ctx, seed)``.
    args: dict = field(default_factory=dict)
    #: Further EXPLAIN lines printed under the operator.
    notes: tuple[str, ...] = ()
    child: "PlanNode | None" = None

    def chain(self) -> list["PlanNode"]:
        """This node and its descendants, root first."""
        nodes, node = [], self
        while node is not None:
            nodes.append(node)
            node = node.child
        return nodes

    def to_doc(self) -> dict:
        doc = {"op": self.op, "detail": self.detail, "args": dict(self.args)}
        if self.notes:
            doc["notes"] = list(self.notes)
        if self.child is not None:
            doc["child"] = self.child.to_doc()
        return doc


@dataclass
class PhysicalPlan:
    """Everything decided about one TRAIN statement before it runs."""

    #: The statement as asked (``strategy`` may still say ``auto``).
    spec: TrainSpec
    #: The strategy that runs.
    strategy: str
    #: ``"heap"`` or ``"blockfile"``.
    executor: str
    device: DeviceModel
    #: Tuples one epoch visits (the qualifying subset under WHERE).
    n_tuples: int
    buffer_tuples: int
    #: Timeline label of the run (``minidb/<what ran>``).
    system: str = ""
    tree: PlanNode | None = None
    #: The simulated clock overlaps I/O with compute (heap executor only).
    double_buffer: bool = False
    setup_note: str = ""
    #: Simulated setup charge; a block file's is measured when it is written.
    setup_s: float = 0.0
    #: Block-file geometry (``None`` on the heap executor).
    n_shards: int | None = None
    tuples_per_block: int | None = None
    buffer_blocks: int | None = None
    #: The cost advisor's evidence when the statement said ``strategy = auto``.
    advisor: AdvisorDecision | None = None
    #: Why the advisor's pick does not run, when it does not.
    advisor_note: str = ""
    #: The WHERE access/fetch decision document.
    where: dict | None = None
    # Handles for the executor, not part of the document.
    positions: object = None
    partition: object = None

    def to_doc(self) -> dict:
        """The JSON-ready record of the plan (``query.extra["plan"]``)."""
        return {
            "strategy": self.strategy,
            "requested_strategy": self.spec.strategy,
            "executor": self.executor,
            "device": self.device.name,
            "system": self.system,
            "n_tuples": self.n_tuples,
            "buffer_tuples": self.buffer_tuples,
            "double_buffer": self.double_buffer,
            "setup": {"note": self.setup_note, "seconds": self.setup_s},
            "n_shards": self.n_shards,
            "tuples_per_block": self.tuples_per_block,
            "buffer_blocks": self.buffer_blocks,
            "advisor": None if self.advisor is None else self.advisor.to_doc(),
            "advisor_note": self.advisor_note,
            "where": None if self.where is None else dict(self.where),
            "tree": self.tree.to_doc(),
        }


def _plan_where(spec: TrainSpec, table, device: DeviceModel):
    """Resolve the predicate once: ``(positions, decision document)``.

    Costed candidate enumeration (full scan vs every usable index range vs
    their intersection; ``!=`` shapes fail loudly), then the per-epoch
    fetch choice over the qualifying pages.
    """
    positions, index, access_doc = _where.plan_where_access(table, spec.where, device)
    decision = _where.choose_where_path(
        table, spec.where, positions, device, index=index, access=access_doc["access"]
    )
    decision.update(access_doc)
    if len(positions) == 0:
        raise EngineError(
            f"TRAIN ... WHERE {spec.where.render()} on table {spec.table!r} "
            "matches no tuples"
        )
    return positions, decision


def physical_plan(
    spec: TrainSpec,
    table,
    device: DeviceModel,
    compute,
    history=None,
) -> PhysicalPlan:
    """Plan one TRAIN statement over ``table``; touches nothing.

    ``device`` is the engine's; ``WITH device = '...'`` overrides it here,
    once, for the advisor, the WHERE costing and the simulated clock alike.
    ``history`` is the table's per-epoch wall observations (κ learning).
    """
    if spec.device:
        try:
            device = device_by_name(spec.device)
        except KeyError as exc:
            raise EngineError(str(exc.args[0])) from None
    n_shards = spec.workers if spec.grid is None else max(spec.workers, spec.grid.n_configs)
    blockfile = n_shards > 1 or spec.grid is not None
    if blockfile and spec.where is not None:
        # The parallel path shards the whole table and has no filtered plan.
        raise EngineError("TRAIN ... WHERE does not support workers > 1")

    strategy, advisor, advisor_note = spec.strategy, None, ""
    if strategy == "auto" and spec.where is not None:
        # A filtered subset inherits the base table's clustering; take the
        # shuffle-safe default rather than probing the subset.
        strategy = "corgipile"
    elif strategy == "auto":
        # ``device`` already carries any ``WITH device`` override; ``history``
        # lets the advisor fit κ from this table's earlier per-epoch walls.
        advisor = advise_strategy(
            table, device, block_bytes=spec.block_size, epochs=spec.epochs,
            buffer_fraction=spec.buffer_fraction, compute=compute, history=history,
        )
        strategy = advisor.strategy
    if strategy not in STRATEGIES:
        raise EngineError(
            f"unknown strategy {strategy!r}; supported: {', '.join(STRATEGIES)}"
        )
    if blockfile and not strategy.startswith("corgipile"):
        # The one rule for both block-file executors (workers > 1, grid):
        # they run sharded CorgiPile and nothing else.
        if advisor is None:
            raise EngineError(
                f"strategy {strategy!r} cannot run here: workers > 1 and grid = (...) "
                "execute sharded corgipile over a block file only"
            )
        advisor_note = (
            f"block-file executor runs sharded corgipile only; the advisor's "
            f"pick {strategy!r} is evidence, not the plan"
        )
        strategy = "corgipile"
    if spec.where is not None and strategy not in WHERE_STRATEGIES:
        raise EngineError(
            f"strategy {strategy!r} does not support TRAIN ... WHERE; "
            f"one of {', '.join(WHERE_STRATEGIES)}"
        )

    if table.heap.layout != "row" and (spec.where is not None or strategy in RID_STRATEGIES):
        # A columnar page packs its rows into per-column chunks: no slots.
        what = "TRAIN ... WHERE" if spec.where is not None else f"strategy {strategy!r}"
        raise UnsupportedLayoutError(
            f"{what} addresses tuples by RID and needs a row-layout table; "
            f"{table.name!r} is {table.heap.layout}"
        )

    positions = where_doc = None
    n_tuples = table.n_tuples
    if spec.where is not None:
        positions, where_doc = _plan_where(spec, table, device)
        n_tuples = len(positions)
    plan = PhysicalPlan(
        spec=spec,
        strategy=strategy,
        executor="blockfile" if blockfile else "heap",
        device=device,
        n_tuples=n_tuples,
        buffer_tuples=max(1, round(spec.buffer_fraction * n_tuples)),
        advisor=advisor,
        advisor_note=advisor_note,
        where=where_doc,
        positions=positions,
    )
    if blockfile:
        _plan_blockfile(plan, table, n_shards)
        return plan

    # The two heap paths have always fed the simulated clock differently
    # (plain block_only overlaps I/O with compute, filtered block_only does
    # not); the plan records what each does rather than merging them.
    if spec.where is not None:
        plan.double_buffer = strategy == "corgipile" and spec.double_buffer
        if strategy != "no_shuffle":
            plan.partition = _where.subset_partition(table.heap, positions, spec.block_size)
            where_doc["n_virtual_blocks"] = plan.partition.n_blocks
            where_doc["n_virtual_pages"] = plan.partition.n_virtual_pages
    else:
        plan.double_buffer = strategy != "corgipile_single_buffer" and spec.double_buffer
    plan.system = f"minidb/{strategy}" + ("+where" if spec.where is not None else "")
    plan.tree = _heap_tree(plan, table)
    _plan_heap_setup(plan, table, compute)
    return plan


def _sgd_node(spec: TrainSpec, child: PlanNode, per_config: bool = False) -> PlanNode:
    detail = (
        f"model={spec.model}, epochs={spec.epochs}, per-config lr/decay/l2"
        if per_config
        else f"model={spec.model}, epochs={spec.epochs}, batch_size={spec.batch_size}, "
        f"lr={spec.lr}, decay={spec.decay}"
    )
    return PlanNode("SGD", detail, child=child)


def _heap_tree(plan: PhysicalPlan, table) -> PlanNode:
    """The strategy → operator-tree mapping of the heap executor."""
    spec, strategy, heap, buffer = plan.spec, plan.strategy, table.heap, plan.buffer_tuples
    leaf = PlanNode(
        f"Heap {table.name!r}",
        f"{table.n_tuples} tuples, {heap.n_pages} pages, {fmt_bytes(heap.total_bytes)}"
        + (", TOAST-compressed" if heap.compress else ""),
    )

    def scan(op: str, detail: str = "", **args) -> PlanNode:
        return PlanNode(op, detail, args, child=leaf)

    def tuple_shuffle(child: PlanNode) -> PlanNode:
        buffering = "double-buffered" if plan.double_buffer else "single-buffered"
        return PlanNode(
            "TupleShuffle",
            f"buffer={buffer} tuples, {buffering}",
            {"buffer_tuples": buffer},
            child=child,
        )

    if spec.where is not None:
        if strategy == "no_shuffle":
            return _sgd_node(spec, scan("FilteredSeqScan", f"{plan.n_tuples} qualifying tuples"))
        part, fetch = plan.partition, plan.where["fetch"]
        rids = scan(
            "RidBlockShuffle",
            f"blocks={part.n_blocks}, block_size={fmt_bytes(spec.block_size)}, "
            f"{plan.n_tuples} qualifying tuples over {part.n_virtual_pages} virtual pages, "
            + ("index-ordered page fetch" if fetch == "index" else "full-scan prefetch per epoch"),
            fetch=fetch,
        )
        return _sgd_node(spec, rids if strategy == "block_only" else tuple_shuffle(rids))

    def block_shuffle(note: str = "", within: str = "keep") -> PlanNode:
        return scan(
            "BlockShuffle",
            f"blocks={heap.n_blocks(spec.block_size)}, block_size={fmt_bytes(spec.block_size)}"
            + (f", {note}" if note else ""),
            within=within,
        )

    if strategy in ("corgipile", "corgipile_single_buffer"):
        top = tuple_shuffle(block_shuffle(f"{heap.pages_per_block(spec.block_size)} pages/block"))
    elif strategy == "corgi2":
        # The online half of Corgi² is plain CorgiPile over the copy.
        top = tuple_shuffle(block_shuffle("over re-grouped copy"))
    elif strategy == "block_only":
        top = block_shuffle()
    elif strategy == "block_reshuffle":
        top = block_shuffle("tuples reshuffled in memory per block", within="shuffle")
    elif strategy == "block_reversal":
        top = block_shuffle("within-block order reversed on odd epochs", within="reverse")
    elif strategy == "no_shuffle":
        top = scan("SeqScan")
    elif strategy == "shuffle_once":
        top = scan("SeqScan", "over pre-shuffled copy")
    elif strategy == "epoch_shuffle":
        detail = "fresh permutation per epoch; re-sort charged per epoch"
        top = scan("PermutedScan", detail, charge="sort")
    elif strategy == "random_access":
        detail = "random tuple access — vanilla SGD path"
        top = scan("PermutedScan", detail, charge="random_tuple")
    elif strategy == "sliding_window":
        top = PlanNode(
            "SlidingWindow", f"window={buffer} tuples", {"window_tuples": buffer},
            child=scan("SeqScan"),
        )
    else:  # mrs — physical_plan rejected everything outside STRATEGIES
        top = PlanNode(
            "MultiplexedReservoir", f"reservoir={buffer} tuples", {"buffer_tuples": buffer},
            child=scan("SeqScan"),
        )
    return _sgd_node(spec, top)


def _plan_heap_setup(plan: PhysicalPlan, table, compute) -> None:
    """The offline copy two strategies train over, charged before epoch 1."""
    spec, device = plan.spec, plan.device
    bytes_total = float(table.heap.payload_bytes)
    second_copy = f"writes a {fmt_bytes(table.heap.total_bytes)} second copy"
    if plan.strategy == "shuffle_once":
        # External sort: alternating sequential read/write passes plus the
        # n·log2(n) comparison/copy CPU of ORDER BY RANDOM().
        comparisons = table.n_tuples * max(1.0, math.log2(table.n_tuples))
        plan.setup_s = (
            EXTERNAL_SORT_PASSES * device.sequential_time(bytes_total)
            + 0.25 * comparisons * compute.per_tuple_s
        )
        plan.setup_note = (
            f"offline full shuffle — external sort ({EXTERNAL_SORT_PASSES} passes), "
            + second_copy
        )
    elif plan.strategy == "corgi2":
        # One random-block read of the table plus one sequential write of
        # the re-grouped copy.
        n_blocks = max(1, table.heap.n_blocks(spec.block_size))
        plan.setup_s = device.random_time(
            bytes_total / n_blocks, n_blocks
        ) + device.sequential_time(bytes_total)
        plan.setup_note = (
            "Corgi² offline partial re-group — one random-block read pass, " + second_copy
        )


def _plan_blockfile(plan: PhysicalPlan, table, n_shards: int) -> None:
    """Geometry and tree of the sharded block-file executors.

    A ``block_size`` large enough to pack a small table into fewer blocks
    than there are shards would leave some shard empty — and sync mode
    silently trains nothing when the smallest shard is empty — so the block
    is capped at the fair share that gives every shard at least four.
    Section 5: each worker holds a ``1/PN`` share of the tuple buffer.
    """
    spec, n = plan.spec, plan.n_tuples
    tuples_per_block = max(1, min(n, round(spec.block_size / max(1.0, table.tuple_bytes))))
    tuples_per_block = min(tuples_per_block, max(1, n // (4 * n_shards)))
    buffer_blocks = max(1, round(plan.buffer_tuples / (n_shards * tuples_per_block)))
    plan.n_shards = n_shards
    plan.tuples_per_block = tuples_per_block
    plan.buffer_blocks = buffer_blocks
    plan.setup_note = f"materialise block file ({tuples_per_block} tuples/block)"
    shards = PlanNode(
        "ShardBlockFile",
        f"{plan.n_tuples} tuples, {tuples_per_block} tuples/block, {n_shards} shards; "
        f"materialised copy of heap {table.name!r}",
    )
    fills = PlanNode("TupleShuffle", f"{buffer_blocks} blocks/fill per worker", child=shards)
    if spec.grid is None:
        plan.system = f"minidb/parallel-{spec.aggregation}x{n_shards}"
        plan.tree = PlanNode(
            "DataParallel",
            f"{n_shards} workers, aggregation={spec.aggregation}",
            child=_sgd_node(spec, fills),
        )
        return
    from ..parallel import HopperSchedule

    S, E = spec.grid.n_configs, spec.epochs
    schedule = HopperSchedule(S, n_shards, E)
    # S solo runs would each traverse all P shards per epoch; the hopper
    # overlaps them into E*P + S - 1 sub-epoch slots.
    seq_slots = S * E * n_shards
    hopper = PlanNode(
        "ModelHopper",
        f"{S} models x {n_shards} shard workers, {schedule.total_slots} sub-epoch slots",
        notes=(
            f"cost: {schedule.total_slots} slots vs {seq_slots} for {S} sequential "
            f"solo runs; bubble x{schedule.bubble_ratio:.2f}, "
            f"speedup x{seq_slots / schedule.total_slots:.2f}",
            *schedule.render(),
        ),
        child=_sgd_node(spec, fills, per_config=True),
    )
    plan.system = f"minidb/hopper-{S}x{n_shards}"
    plan.tree = PlanNode(
        "Grid",
        f"{spec.grid.render()}; {S} configs -> models grid_0..grid_{S - 1}",
        child=hopper,
    )
