"""MiniDB — the in-database ML engine (Section 6).

Glues the catalog, the Volcano operators, the timing model, and the query
interface together::

    db = MiniDB(device=SSD)
    db.create_table("higgs", clustered_train)
    result = db.execute(
        "SELECT * FROM higgs TRAIN BY svm WITH learning_rate = 0.1, "
        "max_epoch_num = 5, block_size = 10MB, buffer_fraction = 0.1",
        test=test_set,
    )
    result.timeline  # accuracy vs simulated seconds
    db.execute(f"SELECT * FROM higgs PREDICT BY {result.model_id}")

A TRAIN statement is planned once (:func:`repro.db.plan.physical_plan`:
strategy → operator tree, geometry, executor) and the plan is what
``EXPLAIN`` prints and ``train`` runs.

Trained models are kept in the engine's model store as in-memory objects
with ids, as the paper describes (a C struct with an ID in the kernel).
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from ..data.dataset import Dataset
from ..ml.models.base import SupervisedModel
from ..ml.optim import SGD
from ..ml.schedules import ExponentialDecay
from ..ml.trainer import (
    CheckpointConfig,
    ConvergenceHistory,
    EpochRecord,
    TrainInterrupted,
    epoch_record,
)
from ..storage.iomodel import SSD, DeviceModel
from ..storage.page import DEFAULT_PAGE_BYTES
from .catalog import Catalog, TableInfo
from .errors import EngineError, StorageError, UnknownModelError
from .operators import (
    BlockShuffleOperator,
    FilteredSeqScanOperator,
    MultiplexedReservoirOperator,
    PassThroughAccountingOperator,
    PermutedScanOperator,
    RidBlockShuffleOperator,
    SeqScanOperator,
    SGDOperator,
    SlidingWindowOperator,
    TupleShuffleOperator,
)
from .explain import explain_train_plan
from .plan import PhysicalPlan, physical_plan
from .query import (
    CreateIndexQuery,
    DeleteQuery,
    DropIndexQuery,
    EvaluateQuery,
    ExplainQuery,
    InsertQuery,
    PredictQuery,
    SelectQuery,
    TrainQuery,
    UpdateQuery,
    parse_query,
)
from .spec import TrainSpec
from .timeline import Timeline
from .timing import ComputeProfile, RuntimeContext
from .where import qualifying_rids

__all__ = [
    "MiniDB",
    "TrainResult",
    "GridTrainResult",
    "ResourceUsage",
    "ENGINE_PROFILE",
]

# Per-tuple SGD cost of the native (C-level) CorgiPile operators: a slot
# extraction plus a dot product / axpy over the feature values.
ENGINE_PROFILE = ComputeProfile(
    "corgipile-engine",
    per_tuple_s=1.5e-6,
    per_value_s=4e-9,
    decompress_per_byte_s=3e-8,
)

# The table task each model family trains on.
_MODEL_TASK = {"lr": "binary", "svm": "binary", "linreg": "regression", "softmax": "multiclass"}


@dataclass
class ResourceUsage:
    """Appendix B resource accounting for one training query."""

    buffer_memory_bytes: float
    extra_disk_bytes: float
    io_seconds: float
    compute_seconds: float
    #: Filled in when the run's timeline is complete.
    wall_seconds: float = 0.0

    @property
    def cpu_utilisation(self) -> float:
        """Compute seconds per wall second (can exceed 1 with two threads)."""
        if self.wall_seconds == 0:
            return 0.0
        return self.compute_seconds / self.wall_seconds


@dataclass
class TrainResult:
    """Everything a ``TRAIN BY`` query produces."""

    model_id: str
    model: SupervisedModel
    history: ConvergenceHistory
    timeline: Timeline
    resources: ResourceUsage
    query: TrainQuery


@dataclass
class GridTrainResult(TrainResult):
    """A ``TRAIN ... WITH grid`` result: the winner plus the leaderboard.

    The base fields describe the *best* configuration (its model is also
    registered under the plain ``model_id``); every grid configuration's
    final model is registered as ``grid_<index>`` and ranked in
    ``leaderboard`` (see :meth:`repro.parallel.HopperResult.leaderboard`).
    """

    leaderboard: list[dict] = None
    histories: list[ConvergenceHistory] = None
    schedule: dict = None


class MiniDB:
    """A miniature database engine with in-DB SGD."""

    def __init__(
        self,
        device: DeviceModel = SSD,
        compute: ComputeProfile = ENGINE_PROFILE,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        pool_pages: int = 1 << 30,
    ):
        self.device = device
        self.compute = compute
        self.catalog = Catalog(page_bytes=page_bytes, pool_pages=pool_pages)
        self._models: dict[str, SupervisedModel] = {}
        self._model_counter = 0
        # Per-table per-epoch wall observations from finished TRAINs; the
        # auto planner fits the clustering penalty κ from these
        # (see repro.db.advisor.learn_kappa).
        self._kappa_history: dict[str, list[dict]] = {}
        # Model-store mutations are the only cross-thread shared state in
        # one MiniDB; the lock makes the engine re-entrant from worker
        # threads (the serve daemon registers job-trained models into a
        # session's engine while its connection thread runs PREDICTs).
        self._lock = threading.RLock()
        # The worker processes of ``workers = PN`` / ``grid`` statements:
        # spawned by the first one, re-armed by every later one of that size
        # (one statement at a time: the lock is held while the fleet is armed).
        self._fleet = None
        self._close_fleet = None
        self._fleet_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _fleet_for(self, n_workers: int):
        """This engine's idle :class:`~repro.parallel.fleet.WorkerFleet` of
        ``n_workers``; a fleet of another size, or one an aborted statement
        closed, is replaced."""
        from ..parallel.fleet import WorkerFleet

        fleet = self._fleet
        if fleet is None or fleet.closed or fleet.n_workers != n_workers:
            self.close()
            fleet = self._fleet = WorkerFleet(n_workers)
            # The safety net under ``close()``: the fleet dies with its
            # engine.  The callback must hold no reference back to ``self``.
            self._close_fleet = weakref.finalize(self, fleet.close)
        return fleet

    def close(self) -> None:
        """Stop the worker fleet, if one is up (idempotent).  The engine
        stays usable: the next block-file statement spawns a fresh fleet."""
        if self._fleet is not None:
            self._close_fleet()
            self._fleet = self._close_fleet = None

    def __enter__(self) -> "MiniDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def create_table(
        self, name: str, dataset: Dataset, compress: bool = False, layout: str = "row"
    ) -> TableInfo:
        return self.catalog.create_table(name, dataset, compress=compress, layout=layout)

    def inject_faults(self, name: str, plan, retry=None, stats=None):
        """Swap table ``name``'s storage for fault-injecting wrappers.

        ``plan`` is a :class:`repro.faults.FaultPlan`; subsequent queries on
        the table read through checksum-verified, bounded-retry wrappers
        that inject the plan's faults.  Returns the
        :class:`~repro.obs.StorageMetrics` that will accumulate the
        fault/retry counters.  The logical data is untouched — drop and
        re-create (or re-inject a null plan) to restore clean storage.
        """
        from ..faults import faulty_table

        table = self.catalog.get(name)
        new_table, stats = faulty_table(table, plan, stats=stats, retry=retry)
        self.catalog.replace_table(name, new_table)
        return stats

    def execute(self, sql: str, test: Dataset | None = None):
        """Run one statement.

        ``TRAIN BY`` returns a :class:`TrainResult`, ``PREDICT BY`` a
        prediction array, and ``EXPLAIN`` the plan text without training.
        """
        query = parse_query(sql)
        if isinstance(query, ExplainQuery):
            return self.explain(query.inner)
        if isinstance(query, PredictQuery):
            return self.predict(query)
        if isinstance(query, EvaluateQuery):
            return self.evaluate(query)
        if isinstance(query, SelectQuery):
            return self.select(query)
        if isinstance(query, InsertQuery):
            return self.insert(query)
        if isinstance(query, DeleteQuery):
            return self.delete(query)
        if isinstance(query, UpdateQuery):
            return self.update(query)
        if isinstance(query, CreateIndexQuery):
            return self.create_index(query)
        if isinstance(query, DropIndexQuery):
            return self.drop_index(query)
        return self.train(query, test=test)

    def plan(self, query: TrainQuery) -> PhysicalPlan:
        """The :class:`~repro.db.plan.PhysicalPlan` ``query`` runs as.

        The one place a TRAIN statement meets this engine's catalog, device,
        compute profile and the table's κ history — ``train`` executes the
        result, ``explain`` renders it, and the serve daemon admits a job by
        planning it here.
        """
        spec = TrainSpec.from_query(query)
        return physical_plan(
            spec,
            self.catalog.get(spec.table),
            self.device,
            self.compute,
            self._kappa_history.get(spec.table),
        )

    def explain(self, query: TrainQuery) -> str:
        """Render the physical plan a TRAIN query would execute."""
        return explain_train_plan(self.plan(query))

    # ------------------------------------------------------------------
    def _build_model(
        self, spec: TrainSpec, table: TableInfo, l2: float | None = None
    ) -> SupervisedModel:
        dataset = table.dataset
        needs = _MODEL_TASK[spec.model]
        if dataset.task != needs:
            raise EngineError(
                f"model {spec.model!r} needs a {needs} table; "
                f"{table.name!r} is {dataset.task}"
            )
        n_classes = dataset.n_classes if needs == "multiclass" else None
        return spec.build_model(dataset.n_features, n_classes, l2=l2)

    def _build_pipeline(self, plan: PhysicalPlan, table: TableInfo, ctx: RuntimeContext):
        """Instantiate the plan tree's operators; ``(pipeline, leaf scan)``."""
        spec, seed = plan.spec, plan.spec.seed
        build = {
            "SeqScan": lambda child, a: SeqScanOperator(table, ctx),
            "FilteredSeqScan": lambda child, a: FilteredSeqScanOperator(
                table, ctx, plan.positions
            ),
            "BlockShuffle": lambda child, a: BlockShuffleOperator(
                table, ctx, spec.block_size, seed=seed, **a
            ),
            "RidBlockShuffle": lambda child, a: RidBlockShuffleOperator(
                table, ctx, plan.partition, seed=seed, **a
            ),
            "PermutedScan": lambda child, a: PermutedScanOperator(table, ctx, seed=seed, **a),
            "TupleShuffle": lambda child, a: TupleShuffleOperator(child, ctx, seed=seed, **a),
            "SlidingWindow": lambda child, a: SlidingWindowOperator(child, seed=seed, **a),
            "MultiplexedReservoir": lambda child, a: MultiplexedReservoirOperator(
                child, seed=seed, **a
            ),
        }
        scan = top = None
        # Storage side first; the tree's ends (the SGD root that drives the
        # pipeline, the heap it reads) are not tuple operators.
        for node in reversed(plan.tree.chain()[1:-1]):
            top = build[node.op](top, node.args)
            if scan is None:
                scan = top
        if not isinstance(top, TupleShuffleOperator):
            # Unbuffered plans still charge their I/O in buffer-sized chunks.
            top = PassThroughAccountingOperator(top, ctx, plan.buffer_tuples)
        return top, scan

    def _materialised_copy(self, table: TableInfo, order: np.ndarray, suffix: str) -> TableInfo:
        """``table``'s rows rewritten in ``order`` as a heap of the same format
        — the Shuffle-Once (``ORDER BY RANDOM()``) and Corgi² offline copies.
        It lives for the statement only: the catalog never sees it."""
        return self.catalog.build_table(
            f"{table.name}__{suffix}",
            table.dataset.reorder(order, suffix=suffix),
            compress=table.heap.compress,
            layout=table.heap.layout,
        )

    @staticmethod
    def _corgi2_order(table: TableInfo, spec: TrainSpec) -> np.ndarray:
        """The Corgi² offline partial re-grouping of ``table``'s blocks."""
        from ..data.dataset import BlockLayout
        from ..shuffle.corgi2 import corgi2_offline_order

        tuples_per_block = max(
            1, round(spec.block_size / max(1.0, table.tuple_bytes))
        )
        layout = BlockLayout(table.n_tuples, tuples_per_block)
        group_blocks = max(1, round(spec.buffer_fraction * layout.n_blocks))
        return corgi2_offline_order(layout, group_blocks, spec.seed)

    def _warm_start(self, spec: TrainSpec, model: SupervisedModel) -> SupervisedModel:
        """Resolve ``WITH warm_start = '...'`` into initial parameters.

        The value names either a registered model id (``model_3``) or a
        model/checkpoint file saved by :mod:`repro.ml.persistence` (the
        serve layer maps ``job_N`` to the job's model file before the
        statement reaches the engine).  The source is *cloned* — training
        never mutates the registered original.
        """
        ws = spec.warm_start
        if not ws:
            return model
        from pathlib import Path

        from ..ml.persistence import load_model, model_from_bytes, model_to_bytes

        try:
            source = self.get_model(ws)
        except UnknownModelError:
            if Path(ws).is_file():
                source = load_model(ws)
            else:
                raise EngineError(
                    f"warm_start {ws!r}: no registered model and no such file"
                ) from None
        clone = model_from_bytes(model_to_bytes(source))
        if type(clone).__name__ != type(model).__name__:
            raise EngineError(
                f"warm_start {ws!r} is a {type(clone).__name__}; the query "
                f"trains a {type(model).__name__}"
            )
        if getattr(clone, "n_features", None) != getattr(model, "n_features", None):
            raise EngineError(
                f"warm_start {ws!r} has {getattr(clone, 'n_features', '?')} "
                f"features; the table has {model.n_features}"
            )
        return clone

    def train(
        self,
        query: TrainQuery,
        test: Dataset | None = None,
        *,
        checkpoint: CheckpointConfig | None = None,
        should_stop=None,
        on_progress=None,
    ) -> TrainResult:
        """Plan the statement, run the plan on its executor, finish once.

        ``query.extra`` is the output channel: the plan document
        (``"plan"``, what EXPLAIN renders), the advisor's and the WHERE
        planner's decisions, and what the executor measured.

        The keyword arguments are the job seam, reachable from no SQL: the
        executor saves ``checkpoint`` on its cadence and resumes from the
        file when it exists (and matches the plan — otherwise
        ``ValueError``); it probes ``should_stop()`` at its unit boundaries
        (fused run / mini-batch / sync point / hopper slot) and raises
        :class:`~repro.ml.trainer.TrainInterrupted` once it is true; it
        calls ``on_progress(doc)`` per finished epoch on the heap executor
        and per slot for a grid (a data-parallel run reports none).
        """
        plan = self.plan(query)
        query = replace(query, strategy=plan.strategy)
        query.extra["plan"] = plan.to_doc()
        if plan.advisor is not None:
            query.extra["planner"] = plan.advisor.describe()
            query.extra["advisor"] = plan.advisor.to_doc()
        if plan.where is not None:
            query.extra["where"] = dict(plan.where)
        run = self._run_heap if plan.executor == "heap" else self._run_blockfile
        return run(
            plan, self.catalog.get(query.table), query, test,
            checkpoint, should_stop, on_progress,
        )

    def _run_heap(
        self, plan: PhysicalPlan, table: TableInfo, query: TrainQuery, test: Dataset | None,
        checkpoint, should_stop, on_progress,
    ) -> TrainResult:
        """The Volcano pipeline over the table's heap, on the simulated clock.

        Shuffle-Once and Corgi² first materialise the copy they scan.  Under
        ``WHERE`` the qualifying RIDs are packed into *virtual* blocks that
        replicate the page layout of a materialised copy of the subset, so
        the block/buffer shuffle visits tuples bit-identically to plain
        CorgiPile over that copy — without writing it.
        """
        spec = plan.spec
        table.pool.clear()  # every statement starts on a cold cache
        source, extra_disk = table, 0.0
        if plan.strategy == "shuffle_once":
            order = np.random.default_rng(spec.seed).permutation(table.n_tuples)
            source = self._materialised_copy(table, order, "so")
        elif plan.strategy == "corgi2":
            source = self._materialised_copy(table, self._corgi2_order(table, spec), "corgi2")
        if source is not table:
            extra_disk = float(source.heap.total_bytes)
        eval_set = source.dataset
        values_per_tuple, stored_tuple_bytes = source.values_per_tuple, source.tuple_bytes
        if plan.positions is not None:
            eval_set = table.dataset.subset(plan.positions, suffix="where")
            if eval_set.is_sparse:
                values_per_tuple = eval_set.X.nnz / max(1, eval_set.n_tuples)
            if plan.partition is not None:
                stored_tuple_bytes = plan.partition.payload_bytes / max(
                    1, plan.partition.n_tuples
                )
        ctx = RuntimeContext(
            device=plan.device,
            compute=self.compute,
            double_buffer=plan.double_buffer,
            values_per_tuple=values_per_tuple,
            compressed_bytes_per_tuple=stored_tuple_bytes if source.heap.compress else 0.0,
        )
        model = self._warm_start(spec, self._build_model(spec, source))
        pipeline, scan = self._build_pipeline(plan, source, ctx)
        sgd = SGDOperator(
            pipeline,
            ctx,
            model,
            ExponentialDecay(spec.lr, spec.decay),
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            optimizer=SGD(model) if spec.batch_size > 1 else None,
            fused=spec.fused,
            checkpoint=checkpoint,
            should_stop=should_stop,
            knobs={
                "strategy": plan.strategy,
                "seed": spec.seed,
                "lr": spec.lr,
                "decay": spec.decay,
                "block_size": spec.block_size,
                "buffer_tuples": plan.buffer_tuples,
                "n_tuples": plan.n_tuples,
            },
        )

        def evaluate(epoch: int, lr: float, tuples_seen: int) -> EpochRecord:
            if on_progress is not None:
                on_progress(
                    {"epochs_done": epoch + 1, "epochs": spec.epochs, "tuples_seen": tuples_seen}
                )
            return epoch_record(model, eval_set, test, epoch, lr, tuples_seen)

        try:
            history = sgd.execute(evaluate)
        except StorageError as exc:
            # Graceful degradation: the query layer reports which query hit
            # the fault and how far it got, not a raw storage traceback.
            where = f" WHERE {spec.where.render()}" if spec.where is not None else ""
            raise StorageError(
                f"TRAIN BY {spec.model!r} on table {spec.table!r}{where} "
                f"(strategy {plan.strategy!r}) aborted: {exc.detail}",
                epochs_completed=exc.epochs_completed,
                tuples_seen=exc.tuples_seen,
                partial=exc.partial,
            ) from exc

        if isinstance(scan, RidBlockShuffleOperator):
            query.extra["where"]["physical"] = {
                "blocks_loaded": scan.blocks_loaded,
                "pages_fetched": scan.pages_fetched,
                "device_page_reads": scan.device_page_reads,
            }
        buffered = isinstance(pipeline, TupleShuffleOperator)
        resources = ResourceUsage(
            buffer_memory_bytes=(
                (2 if plan.double_buffer else 1) * plan.buffer_tuples * source.tuple_bytes
                if buffered
                else 0.0
            ),
            extra_disk_bytes=extra_disk,
            io_seconds=ctx.total_io_s,
            compute_seconds=ctx.total_compute_s,
        )
        return self._finish(
            plan, query, model, history, sgd.epoch_wall_times, plan.setup_s, resources,
            measured_walls=sgd.measured_wall_times,
        )

    def _run_blockfile(
        self, plan: PhysicalPlan, table: TableInfo, query: TrainQuery, test: Dataset | None,
        checkpoint, should_stop, on_progress,
    ) -> TrainResult:
        """Sharded CorgiPile over a block file, in real worker processes.

        The table is materialised once as an on-disk block file (charged to
        the timeline as setup, like the Shuffle-Once copy) and its ``Dataset``
        view is the engines' evaluation set — nothing reads the file back in
        this process.  ``workers = PN``
        trains one model data-parallel (:class:`repro.parallel.ParallelTrainer`);
        ``grid`` hops S models across the P shard workers on a staggered
        schedule (:class:`repro.parallel.HopperEngine`) so each consumes the
        identical CorgiPile stream it would see training alone — every
        leaderboard entry is bit-identical to a solo run with the same seed,
        at roughly one data-pass cost.  Unlike the heap executor every number
        here is *measured* wall-clock from the spawned processes, not the
        device timing model — so the resource report sets ``io_seconds`` to
        zero and folds everything into compute/wall.
        """
        import tempfile
        from pathlib import Path

        from ..parallel import HopperEngine, ParallelTrainer
        from ..storage import write_block_file

        spec, dataset, P = plan.spec, table.dataset, plan.n_shards
        if spec.grid is None:
            models = [self._build_model(spec, table)]
        else:
            configs = spec.grid.configs()
            resolved = [c.resolve(spec) for c in configs]
            models = [self._build_model(spec, table, l2=r["l2"]) for r in resolved]
        per_worker = max(1, math.ceil(spec.batch_size / P))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{table.name}.blocks"
            t0 = time.perf_counter()
            write_block_file(dataset, path, plan.tuples_per_block)
            setup_s = time.perf_counter() - t0
            ckpt_path = None if checkpoint is None else Path(checkpoint.path)
            # The table is materialised before the lock is taken: a second
            # block-file statement encodes while this one trains.
            with self._fleet_lock:
                fleet = self._fleet_for(P)
                if spec.grid is None:
                    result = ParallelTrainer(
                        path,
                        models[0],
                        n_workers=P,
                        mode=spec.aggregation,
                        epochs=spec.epochs,
                        global_batch_size=per_worker * P,
                        buffer_blocks=plan.buffer_blocks,
                        seed=spec.seed,
                        schedule=ExponentialDecay(spec.lr, spec.decay),
                        test=test,
                        checkpoint=checkpoint,
                        should_stop=should_stop,
                        fleet=fleet,
                        eval_set=dataset,
                    ).run(resume_from=ckpt_path if ckpt_path and ckpt_path.exists() else None)
                else:

                    def on_slot(slot: int, progress: dict) -> None:
                        if should_stop is not None and should_stop():
                            raise TrainInterrupted(f"stopped after hopper slot {slot}")
                        if on_progress is not None:
                            on_progress(progress)

                    result = HopperEngine(
                        path,
                        models,
                        lrs=[r["lr"] for r in resolved],
                        decays=[r["decay"] for r in resolved],
                        epochs=spec.epochs,
                        n_workers=P,
                        buffer_blocks=plan.buffer_blocks,
                        seed=spec.seed,
                        labels=[c.label() for c in configs],
                        checkpoint_path=ckpt_path,
                        on_slot=on_slot,
                        fleet=fleet,
                        eval_set=dataset,
                    ).run()
        buffer_memory = float(
            P * plan.buffer_blocks * plan.tuples_per_block * table.tuple_bytes
        )
        grid = None
        if spec.grid is None:
            if spec.aggregation == "sync" and result.sync_steps == 0:
                raise EngineError(
                    f"batch_size = {spec.batch_size} needs {per_worker * P} tuples "
                    f"per sync step, but the smallest of the {P} shards "
                    "never holds that many; lower batch_size or workers"
                )
            model, history, walls = models[0], result.history, result.epoch_walls
            query.extra["parallel"] = {
                "n_workers": result.n_workers,
                "mode": result.mode,
                "sync_steps": result.sync_steps,
                "tuples_processed": result.tuples_processed,
                "tuples_per_second": result.tuples_per_second,
                "plan": result.plan,
            }
        else:
            leaderboard = result.leaderboard()
            for row in leaderboard:
                row["values"] = resolved[row["config"]]
                row["model_id"] = self.register_model(
                    result.models[row["config"]], model_id=f"grid_{row['config']}"
                )
            best = leaderboard[0]["config"]
            model, history = result.models[best], result.histories[best]
            # Model m trains in slots m+e*P .. m+(e+1)*P-1; the wall it
            # experiences per epoch is those coordinator slot walls.
            walls = [
                sum(result.slot_walls[best + e * P : best + (e + 1) * P])
                for e in range(len(history.records))
            ]
            buffer_memory += len(models) * model.parameter_vector().size * 8
            query.extra["hopper"] = {
                "schedule": result.schedule.to_doc(),
                "tuples_processed": result.tuples_processed,
                "wall_seconds": round(result.wall_seconds, 6),
                "plan": result.plan,
            }
            query.extra["grid"] = {
                "n_configs": len(models),
                "axes": {name: list(values) for name, values in spec.grid.axes},
                "leaderboard": [
                    {k: v for k, v in row.items() if k != "curve"} for row in leaderboard
                ],
            }
            grid = {
                "leaderboard": leaderboard,
                "histories": result.histories,
                "schedule": result.schedule.to_doc(),
            }
        resources = ResourceUsage(
            buffer_memory_bytes=buffer_memory,
            extra_disk_bytes=float(dataset.n_tuples * table.tuple_bytes),
            io_seconds=0.0,
            compute_seconds=result.wall_seconds,
        )
        return self._finish(plan, query, model, history, walls, setup_s, resources, grid=grid)

    def _finish(
        self,
        plan: PhysicalPlan,
        query: TrainQuery,
        model: SupervisedModel,
        history: ConvergenceHistory,
        epoch_walls,
        setup_s: float,
        resources: ResourceUsage,
        measured_walls=None,
        grid: dict | None = None,
    ) -> TrainResult:
        """Timeline, wall clock, observed walls and registration — for every
        executor, once.  ``epoch_walls`` are on the executor's own clock:
        simulated for the heap (which also passes ``measured_walls``),
        measured for the block-file engines."""
        timeline = Timeline(system=plan.system, setup_s=setup_s, setup_note=plan.setup_note)
        for record, wall in zip(history.records, epoch_walls):
            timeline.append(
                wall, record.epoch, record.train_loss, record.train_score, record.test_score
            )
        resources.wall_seconds = timeline.total_time_s
        if measured_walls is not None:
            # Measured walls are the advisor's feedback channel; the κ
            # learner is fed the *simulated* ones, which share units with the
            # device cost model the advisor prices candidates in (see
            # repro.db.advisor.learn_kappa).
            query.extra.setdefault("advisor", {})["observed"] = {
                "epoch_wall_s": [round(w, 6) for w in measured_walls],
                "total_wall_s": round(sum(measured_walls), 6),
                "simulated_epoch_wall_s": [round(w, 6) for w in epoch_walls],
            }
            if epoch_walls:
                self._kappa_history.setdefault(query.table, []).append(
                    {
                        "strategy": plan.strategy,
                        "epoch_wall_s": [float(w) for w in epoch_walls],
                    }
                )
        model_id = self.register_model(model)
        if grid is None:
            return TrainResult(model_id, model, history, timeline, resources, query)
        return GridTrainResult(model_id, model, history, timeline, resources, query, **grid)

    # ------------------------------------------------------------------
    def register_model(self, model: SupervisedModel, model_id: str | None = None) -> str:
        """Store ``model`` under a fresh (or explicit) id; thread-safe.

        Worker threads (the serve job runner) register models they trained
        out-of-engine so the session's ``PREDICT BY`` / ``EVALUATE BY``
        statements can address them.
        """
        with self._lock:
            if model_id is None:
                self._model_counter += 1
                model_id = f"model_{self._model_counter}"
            self._models[model_id] = model
            return model_id

    def predict(self, query: PredictQuery) -> np.ndarray:
        table = self.catalog.get(query.table)
        model = self.get_model(query.model_id)
        return model.predict(table.dataset.X)

    def select(self, query: SelectQuery, max_rows: int = 20) -> dict:
        """Inline row fetch: the first ``LIMIT n`` tuples of a table.

        Rows are JSON-ready (plain floats), so the serve layer can put the
        result straight on the wire.  ``max_rows`` caps an un-LIMITed
        SELECT — this engine exists to train, not to dump tables.

        Rows come from the table's buffer pool, so on a columnar table a
        projection like ``SELECT label FROM t`` materialises only the
        chunks it names — the feature columns are never decoded.
        """
        table = self.catalog.get(query.table)
        n_features = table.n_features
        limit = max_rows if query.limit is None else min(query.limit, max_rows)
        columns = query.columns
        want_features = columns is None or any(
            c == "features" or (c.startswith("f") and c[1:].isdigit()) for c in columns
        )

        def build_row(batch, j: int, position: int | None) -> dict:
            row: dict = {}
            keys = columns if columns is not None else ("rid", "label", "features")
            for key in keys:
                if key == "rid":
                    row["rid"] = position
                elif key == "label":
                    row["label"] = float(batch.labels[j])
                elif key == "features":
                    feats = batch.row(j)
                    if hasattr(feats, "to_dense"):
                        feats = feats.to_dense()
                    row["features"] = [float(v) for v in np.asarray(feats)[:8]]
                else:  # f<k>
                    k = int(key[1:])
                    if k >= n_features:
                        raise EngineError(
                            f"column {key!r} out of range: table has "
                            f"{n_features} features"
                        )
                    feats = batch.row(j)
                    if hasattr(feats, "to_dense"):
                        feats = feats.to_dense()
                    row[key] = float(np.asarray(feats)[k])
            return row

        rows: list[dict] = []
        via_index = None
        if query.where is not None:
            rids, index = qualifying_rids(table, query.where)
            via_index = None if index is None else index.name
            # Only the ``rid`` column needs the position directory.
            want_position = columns is None or "rid" in columns
            for rid in islice(rids, limit):
                batch = table.pool.get_batch(rid.page_id)
                j = table.heap.slot_row_map(rid.page_id)[rid.slot]
                position = table.heap.position_of(rid) if want_position else None
                rows.append(build_row(batch, j, position))
        else:
            n = min(limit, table.n_tuples)
            position = 0
            page_id = 0
            while len(rows) < n and page_id < table.heap.n_pages:
                batch = table.pool.get_batch(page_id)
                for j in range(min(len(batch), n - len(rows))):
                    rows.append(build_row(batch, j, position + j))
                position += len(batch)
                page_id += 1
        result = {
            "table": query.table,
            "n_tuples": table.n_tuples,
            "n_features": n_features,
            "task": table.task,
            "columns": list(columns) if columns is not None else ["rid", "label", "features"],
            "returned": len(rows),
            "truncated_features": want_features and n_features > 8,
            "rows": rows,
        }
        if query.where is not None:
            result["where"] = query.where.render()
            result["via_index"] = via_index
        return result

    # ------------------------------------------------------------------
    # DML + index DDL
    def _literal_features(self, table: TableInfo, values):
        """An INSERT row literal's feature values as the table's row type."""
        from ..data.sparse import SparseRow

        d = table.n_features
        if len(values) != d:
            raise EngineError(
                f"INSERT row has {len(values)} feature values; table "
                f"{table.name!r} has {d} features"
            )
        dense = np.asarray(values, dtype=np.float64)
        if table.is_sparse:
            nz = np.flatnonzero(dense)
            return SparseRow(nz.astype(np.int64), dense[nz], d)
        return dense

    def insert(self, query: InsertQuery) -> dict:
        """``INSERT INTO t VALUES (label, f0, ...), ...``."""
        table = self.catalog.get(query.table)
        rows = [
            (float(row[0]), self._literal_features(table, row[1:]))
            for row in query.rows
        ]
        rids = table.insert_rows(rows)
        return {
            "table": query.table,
            "inserted": len(rids),
            "rids": [[rid.page_id, rid.slot] for rid in rids],
            "n_tuples": table.n_tuples,
        }

    def delete(self, query: DeleteQuery) -> dict:
        """``DELETE FROM t WHERE ...`` — RIDs resolve via an index range
        when one covers a predicate column."""
        table = self.catalog.get(query.table)
        stream, index = qualifying_rids(table, query.where)
        rids = list(stream)
        deleted = table.delete_rids(rids) if rids else 0
        return {
            "table": query.table,
            "deleted": deleted,
            "via_index": None if index is None else index.name,
            "n_tuples": table.n_tuples,
        }

    def update(self, query: UpdateQuery) -> dict:
        """``UPDATE t SET col = v, ... WHERE ...``."""
        table = self.catalog.get(query.table)
        stream, index = qualifying_rids(table, query.where)
        rids = list(stream)
        moved = table.update_rids(rids, query.assignments) if rids else []
        return {
            "table": query.table,
            "updated": len(moved),
            "moved": sum(1 for old, new in moved if old != new),
            "via_index": None if index is None else index.name,
        }

    def create_index(self, query: CreateIndexQuery) -> dict:
        self.catalog.get(query.table)  # surface UnknownTableError first
        index = self.catalog.create_index(query.table, query.name, query.column)
        return {"table": query.table, **index.describe()}

    def drop_index(self, query: DropIndexQuery) -> dict:
        self.catalog.get(query.table).drop_index(query.name)
        return {"table": query.table, "dropped": query.name}

    def evaluate(self, query: EvaluateQuery) -> dict:
        """Score a stored model against a table's labels."""
        table = self.catalog.get(query.table)
        model = self.get_model(query.model_id)
        dataset = table.dataset
        metric = "r2" if dataset.task == "regression" else "accuracy"
        return {
            "model_id": query.model_id,
            "table": query.table,
            "metric": metric,
            "value": model.score(dataset.X, dataset.y),
            "n_tuples": dataset.n_tuples,
        }

    def get_model(self, model_id: str) -> SupervisedModel:
        with self._lock:
            try:
                return self._models[model_id]
            except KeyError:
                raise UnknownModelError(model_id) from None

    def model_ids(self) -> list[str]:
        with self._lock:
            return list(self._models)
