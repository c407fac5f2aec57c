"""A segmented (Greenplum-style) parallel in-DB training engine.

Section 8 of the paper points at distributed data systems — MADlib on
Greenplum, Vertica-ML, BigQuery ML — as the natural next hosts for
CorgiPile.  This module builds that extension: a coordinator plus
``n_segments`` segment engines, each owning a horizontal slice of the
table.  Training runs the Section 5 recipe *inside* the database:

1. blocks are distributed across segments at load time (block-granular
   round-robin — each segment's slice is itself block-addressable);
2. every segment runs its own BlockShuffle → TupleShuffle pipeline with a
   ``1/PN``-sized buffer and a shared per-epoch seed;
3. mini-batch steps take ``batch/PN`` tuples from every segment and the
   coordinator averages the gradients (the AllReduce of Section 5.1),
   so the effective global order matches single-engine CorgiPile with a
   ``PN``-times-larger buffer (Section 5.2).

Wall-clock: segments work in parallel, so an epoch costs the *slowest*
segment's pipeline time plus a per-batch synchronisation charge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import Dataset
from ..ml.optim import SGD, Optimizer
from ..ml.schedules import ExponentialDecay
from ..ml.trainer import ConvergenceHistory, EpochRecord, epoch_record, run_epochs
from ..storage.codec import RowStream, TupleBatch
from ..storage.iomodel import SSD, DeviceModel
from .catalog import Catalog, TableInfo
from .engine import ENGINE_PROFILE
from .errors import EngineError, UnknownTableError
from .operators import BlockShuffleOperator, TupleShuffleOperator
from .query import TrainQuery
from .timeline import Timeline
from .timing import ComputeProfile, RuntimeContext

__all__ = ["SegmentedMiniDB", "DistributedTrainResult"]

# Coordinator-side cost of one gradient synchronisation (AllReduce over a
# rack-local interconnect; scaled consistently with the device models).
ALLREDUCE_LATENCY_S = 2e-6


@dataclass
class DistributedTrainResult:
    """Outcome of one distributed TRAIN query."""

    model: object
    history: ConvergenceHistory
    timeline: Timeline
    per_segment_tuples: list[int]
    n_segments: int


class SegmentedMiniDB:
    """Coordinator over ``n_segments`` independent segment catalogs."""

    def __init__(
        self,
        n_segments: int,
        device: DeviceModel = SSD,
        compute: ComputeProfile = ENGINE_PROFILE,
        page_bytes: int = 1024,
    ):
        if n_segments <= 0:
            raise ValueError("n_segments must be positive")
        self.n_segments = int(n_segments)
        self.device = device
        self.compute = compute
        self.page_bytes = int(page_bytes)
        self._segments: dict[str, list[TableInfo]] = {}
        self._datasets: dict[str, Dataset] = {}

    # ------------------------------------------------------------------
    def create_table(
        self, name: str, dataset: Dataset, distribution_block: int = 40
    ) -> list[TableInfo]:
        """Distribute ``dataset`` across segments, block-granular round-robin.

        Blocks (runs of ``distribution_block`` contiguous tuples) go to
        segments in round-robin order, preserving each block's internal
        order — the same physical layout a Greenplum distribution policy
        would produce for a bulk load.
        """
        if name in self._segments:
            raise ValueError(f"table {name!r} already exists")
        if distribution_block <= 0:
            raise ValueError("distribution_block must be positive")
        slices: list[list[np.ndarray]] = [[] for _ in range(self.n_segments)]
        block_id = 0
        for lo in range(0, dataset.n_tuples, distribution_block):
            hi = min(lo + distribution_block, dataset.n_tuples)
            slices[block_id % self.n_segments].append(np.arange(lo, hi))
            block_id += 1
        infos = []
        for seg, parts in enumerate(slices):
            if not parts:
                raise ValueError(
                    f"segment {seg} received no data; reduce n_segments or "
                    "distribution_block"
                )
            indices = np.concatenate(parts)
            segment_dataset = dataset.subset(indices, suffix=f"seg{seg}")
            catalog = Catalog(page_bytes=self.page_bytes, pool_pages=1 << 30)
            infos.append(catalog.create_table(name, segment_dataset))
        self._segments[name] = infos
        self._datasets[name] = dataset
        return infos

    def segment_tables(self, name: str) -> list[TableInfo]:
        try:
            return self._segments[name]
        except KeyError:
            raise UnknownTableError(name) from None

    # ------------------------------------------------------------------
    def train(self, query: TrainQuery, test: Dataset | None = None) -> DistributedTrainResult:
        """Run a distributed TRAIN query with gradient-synchronised SGD."""
        if query.strategy != "corgipile":
            raise EngineError(
                "the distributed engine implements the corgipile access path"
            )
        if query.batch_size % self.n_segments != 0:
            raise EngineError(
                f"batch_size ({query.batch_size}) must be divisible by "
                f"n_segments ({self.n_segments}) for gradient synchronisation"
            )
        tables = self.segment_tables(query.table)
        full_dataset = self._datasets[query.table]

        from .engine import MiniDB  # reuse the model factory

        model = MiniDB()._build_model(query.spec(), tables[0])
        optimizer: Optimizer = SGD(model)
        schedule = ExponentialDecay(query.learning_rate, query.decay)
        per_segment_batch = max(1, query.batch_size // self.n_segments)

        contexts = [
            RuntimeContext(
                device=self.device,
                compute=self.compute,
                double_buffer=query.double_buffer,
                values_per_tuple=table.values_per_tuple,
            )
            for table in tables
        ]
        pipelines = []
        for table, ctx in zip(tables, contexts):
            scan = BlockShuffleOperator(table, ctx, query.block_size, seed=query.seed)
            buffer_tuples = max(1, round(query.buffer_fraction * table.n_tuples))
            pipelines.append(TupleShuffleOperator(scan, ctx, buffer_tuples, seed=query.seed))
        history = ConvergenceHistory(
            strategy=f"distributed-corgipile x{self.n_segments}",
            model=type(model).__name__,
        )
        timeline = Timeline(system=f"segmented/{self.n_segments}")
        per_segment_tuples = [0] * self.n_segments
        epoch_walls: list[float] = []

        def step_batch(streams: list[RowStream]) -> TupleBatch | None:
            """``batch/PN`` rows from every segment; ``None`` once one runs dry
            (ragged remainders are dropped, like DistributedSampler's even
            division)."""
            parts = []
            for seg, stream in enumerate(streams):
                part = stream.take(per_segment_batch)
                if part is None or len(part) < per_segment_batch:
                    return None
                per_segment_tuples[seg] += len(part)
                parts.append(part)
            return TupleBatch.concat(parts)

        def units(epoch: int, cursor: int, tuples_seen: int):
            if epoch:
                for pipeline in pipelines:
                    pipeline.rescan()
            streams = [RowStream(pipeline.next_batch) for pipeline in pipelines]
            sync_steps = 0
            while (batch := step_batch(streams)) is not None:
                yield batch.features_matrix(), batch.labels, None, None
                sync_steps += 1
            # Parallel epoch time: slowest segment + AllReduce charges.
            segment_walls = [ctx.epoch_wall_time() for ctx in contexts]
            epoch_walls.append(max(segment_walls) + sync_steps * ALLREDUCE_LATENCY_S)

        def evaluate(epoch: int, lr: float, tuples_seen: int) -> EpochRecord:
            record = epoch_record(model, full_dataset, test, epoch, lr, tuples_seen)
            timeline.append(
                epoch_walls[-1], epoch, record.train_loss, record.train_score, record.test_score
            )
            return record

        for pipeline in pipelines:
            pipeline.open()
        try:
            # The shared update-unit loop, with no checkpoint: a unit is one
            # gradient-synchronised step over every segment's slice.
            run_epochs(
                model,
                optimizer,
                units,
                evaluate,
                history=history,
                epochs=query.max_epoch_num,
                schedule=schedule,
                fused=False,
                knobs={},
            )
        finally:
            for pipeline in pipelines:
                pipeline.close()
        return DistributedTrainResult(
            model=model,
            history=history,
            timeline=timeline,
            per_segment_tuples=per_segment_tuples,
            n_segments=self.n_segments,
        )
