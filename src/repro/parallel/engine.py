"""The coordinator: arms the worker fleet, joins it at seams, owns the model.

This is the executing form of Section 5's multi-process CorgiPile.  The
coordinator and the ``PN`` fleet workers agree on everything determinist-
ically (the shard plan is a pure function of the seed), so the runtime
protocol is nothing but shared-memory vectors plus two barriers.

sync mode is AllReduce-shaped: every worker holds a replica of ``(model,
optimizer)`` and nothing but the workers sits on a step's critical path::

    worker i, global step t                 coordinator
    grads[t & 1][i] = slice-mean gradient
    step barrier (PN parties)               —
    average grads[t & 1], optimiser step
    ... at a seam (a step count):
    grads[t & 1][i] = my replica
    barrier A (PN + 1)  ───────────────▶    barrier A
                                            check the replicas agree, adopt
                                            one; evaluate / checkpoint /
                                            probe should_stop / fire a crash
    barrier B  ◀───────────────────────    barrier B

The seams are a pure function of the run (:meth:`ParallelTrainer._sync_seams`):
every epoch end, the ``checkpoint.every_tuples`` cadence, and the step a
``fault_plan`` crash lands on.  The coordinator computes them once and the
workers get the step counts with their task.

``epoch`` mode syncs once per epoch (tuple-count-weighted model average
over the results queue); ``async`` mode lets workers push Hogwild deltas
into the shared vector and only frames epochs with barriers.

Checkpointing reuses PR 3's atomic format: the coordinator persists
(model, optimiser slots, epoch, in-epoch tuple cursor) at seams — worker 0
ships its optimiser state with its replica when a checkpoint is configured
— and because worker streams are ``(seed, epoch)``-pure, a resumed run
skips to the stored step and continues over the *exact* remaining update
sequence — killed sync runs finish bit-exact (asserted at 1e-12 by
``tests/test_parallel_engine.py``).

Failure discipline: a dead or raising worker aborts both barriers;
the coordinator translates that into :class:`WorkerError` (with the
worker's traceback) and closes the fleet, which reaps its children — no
leaked processes, mirroring PR 1's no-leaked-threads guarantee.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import obs
from ..obs import LoaderMetrics, StorageMetrics
from ..data.dataset import Dataset
from ..ml.models.base import SupervisedModel
from ..ml.optim import SGD, Optimizer
from ..ml.persistence import CheckpointState, model_to_bytes, save_checkpoint
from ..ml.schedules import ExponentialDecay
from ..ml.trainer import (
    CheckpointConfig,
    ConvergenceHistory,
    Trainer,
    epoch_record,
    fixed_order_source,
    restore_run,
)
from ..storage.blockfile import BlockFileReader
from ..storage.codec import TupleBatch
from .aggregate import AGGREGATION_MODES, weighted_average_models
from .fleet import WorkerError, WorkerFleet, running_fleet
from .plan import ShardPlanner
from .shm import shared_arrays
from .worker import BARRIER_TIMEOUT_S, WorkerConfig, worker_main

__all__ = [
    "WorkerError",
    "ParallelResult",
    "ParallelTrainer",
    "load_block_dataset",
    "sync_reference_trainer",
]

@dataclass(frozen=True)
class _Seam:
    """One point of a sync run at which the coordinator joins the workers."""

    steps: int  # global steps the run has applied by then (what workers count)
    epoch: int
    cursor: int  # steps of ``epoch`` applied: its step count at an epoch end
    tuples_seen: int
    kind: str  # "crash" | "checkpoint" | "epoch"


def load_block_dataset(path: str | Path, task: str = "binary") -> Dataset:
    """Materialise a block file back into an in-memory :class:`Dataset`.

    Blocks store contiguous ascending tuple ids, so reading them in block
    order *is* id order — used by the coordinator for end-of-epoch
    evaluation and by the single-process reference run.
    """
    with BlockFileReader(path) as reader:
        table = TupleBatch.concat([reader.read_block_batch(b) for b in range(reader.n_blocks)])
        X, y = table.features_matrix(), table.labels
    return Dataset(X, y, name=Path(path).stem, task=task)


@dataclass
class ParallelResult:
    """Everything one parallel training run produces."""

    model: SupervisedModel
    history: ConvergenceHistory
    mode: str
    n_workers: int
    epochs_run: int
    sync_steps: int
    tuples_processed: int
    epoch_walls: list[float]
    loader_stats: LoaderMetrics
    storage_stats: StorageMetrics
    per_worker: list[dict] = field(default_factory=list)
    plan: dict = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return float(sum(self.epoch_walls))

    @property
    def tuples_per_second(self) -> float:
        wall = self.wall_seconds
        return self.tuples_processed / wall if wall > 0 else 0.0

    def describe(self) -> dict:
        """A JSON-able report (used by the CLI and the scaling bench)."""
        return {
            "mode": self.mode,
            "n_workers": self.n_workers,
            "epochs_run": self.epochs_run,
            "sync_steps": self.sync_steps,
            "tuples_processed": self.tuples_processed,
            "wall_seconds": self.wall_seconds,
            "tuples_per_second": self.tuples_per_second,
            "epoch_walls": [round(w, 6) for w in self.epoch_walls],
            "final_train_score": (
                self.history.final.train_score if self.history.records else None
            ),
            "final_train_loss": (
                self.history.final.train_loss if self.history.records else None
            ),
            "loader": self.loader_stats.as_dict(),
            "storage": self.storage_stats.as_dict(),
            "per_worker": self.per_worker,
            "plan": self.plan,
        }


class ParallelTrainer:
    """Multi-process data-parallel SGD over one block file.

    ``eval_set`` is the block file's rows as a :class:`Dataset`, for the
    end-of-epoch evaluation; a caller that just wrote the file from one
    passes it, and a caller with a path alone gets the file read back.
    """

    def __init__(
        self,
        path: str | Path,
        model: SupervisedModel,
        *,
        n_workers: int,
        mode: str = "sync",
        epochs: int = 5,
        global_batch_size: int = 32,
        buffer_blocks: int = 2,
        seed: int = 0,
        schedule=None,
        optimizer: Optimizer | None = None,
        test: Dataset | None = None,
        checkpoint: CheckpointConfig | None = None,
        fault_plan=None,
        task: str = "binary",
        should_stop=None,
        fleet: WorkerFleet | None = None,
        eval_set: Dataset | None = None,
    ):
        if mode not in AGGREGATION_MODES:
            raise ValueError(f"unknown mode {mode!r}; one of {AGGREGATION_MODES}")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.path = str(path)
        self.model = model
        self.mode = mode
        self.epochs = int(epochs)
        self.global_batch_size = int(global_batch_size)
        self.seed = int(seed)
        self.schedule = schedule if schedule is not None else ExponentialDecay(0.01)
        self.optimizer = optimizer if optimizer is not None else SGD(model)
        self.test_set = test
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        #: Probed at every coordinator rendezvous: a sync run notices a stop
        #: request at its next seam (see WorkerFleet).
        self.should_stop = should_stop
        #: The fleet to run on; ``None`` opens one for the length of ``run``.
        self.fleet = fleet
        self.planner = ShardPlanner.for_block_file(
            self.path, n_workers, buffer_blocks, seed=self.seed
        )
        self.n_workers = self.planner.n_workers
        self.planner.per_worker_batch(self.global_batch_size)  # validates divisibility
        self.eval_set = (
            eval_set if eval_set is not None else load_block_dataset(self.path, task=task)
        )
        self._tuples_seen = 0

    # ------------------------------------------------------------------
    def run(self, resume_from: CheckpointState | str | Path | None = None) -> ParallelResult:
        history = ConvergenceHistory(
            strategy=f"parallel-{self.mode}", model=type(self.model).__name__
        )
        start_epoch = 0
        start_step = 0
        self._tuples_seen = 0
        if resume_from is not None:
            start_epoch, start_step = self._restore(resume_from, history)
        self._save_checkpoint(start_epoch, start_step * self.global_batch_size, history)

        dim = int(self.model.parameter_vector().size)
        blob = model_to_bytes(self.model)
        replica = copy.copy(self.optimizer)
        replica.model = None  # each worker binds its own
        seams = self._sync_seams(start_epoch, start_step) if self.mode == "sync" else []
        epoch_walls: list[float] = []
        total_steps = 0
        # The fleet is entered last so an abort reaps it before the arrays'
        # names are unlinked (see repro.parallel.shm).
        with (
            shared_arrays((dim,), (2, self.n_workers, dim)) as ((params, grads), handles),
            running_fleet(self.fleet, self.n_workers) as fleet,
        ):
            params[:] = self.model.parameter_vector()
            fleet.arm(
                worker_main,
                [
                    WorkerConfig(
                        worker_id=w,
                        n_workers=self.n_workers,
                        path=self.path,
                        model_blob=blob,
                        seed=self.seed,
                        epochs=self.epochs,
                        buffer_blocks=self.planner.buffer_blocks,
                        mode=self.mode,
                        global_batch_size=self.global_batch_size,
                        schedule=self.schedule,
                        start_epoch=start_epoch,
                        start_step=start_step,
                        optimizer=replica,
                        seams=tuple(seam.steps for seam in seams),
                        ship_optimizer_state=self.checkpoint is not None,
                    )
                    for w in range(self.n_workers)
                ],
                handles,
                label="parallel",
                should_stop=self.should_stop,
            )
            for epoch in range(start_epoch, self.epochs):
                t0 = time.perf_counter()
                lr = float(self.schedule(epoch))
                skip = start_step if epoch == start_epoch else 0
                with obs.span(
                    "parallel.epoch", epoch=epoch, mode=self.mode
                ) as sp:
                    if self.mode == "sync":
                        total_steps += self._sync_epoch(
                            [seam for seam in seams if seam.epoch == epoch],
                            skip, grads, fleet, history,
                        )
                    elif self.mode == "epoch":
                        self._epoch_mode_epoch(epoch, params, fleet)
                        total_steps += 1
                    else:
                        self._async_epoch(params, fleet)
                        total_steps += 1
                    wall = time.perf_counter() - t0
                    sp.set(wall_s=wall)
                epoch_walls.append(wall)
                obs.inc("parallel.epochs")
                history.append(
                    epoch_record(
                        self.model, self.eval_set, self.test_set, epoch, lr, self._tuples_seen
                    )
                )
                self._save_checkpoint(epoch + 1, 0, history)
                if self.mode == "sync":
                    fleet.rendezvous()  # B of the epoch-end seam: workers resume
            per_worker, merged_loader, merged_storage, worker_tuples = fleet.collect()

        return ParallelResult(
            model=self.model,
            history=history,
            mode=self.mode,
            n_workers=self.n_workers,
            epochs_run=len(epoch_walls),
            sync_steps=total_steps,
            tuples_processed=worker_tuples,
            epoch_walls=epoch_walls,
            loader_stats=merged_loader,
            storage_stats=merged_storage,
            per_worker=per_worker,
            plan=self.planner.describe(),
        )

    # ------------------------------------------------------------------
    def _sync_seams(self, start_epoch: int, start_step: int) -> list[_Seam]:
        """Where the coordinator joins a sync run, in order: every epoch end,
        the checkpoint cadence, and the step a scheduled crash lands on (the
        run ends there).  A pure function of the plan and the resume point."""
        bs = self.global_batch_size
        every = self.checkpoint.every_tuples if self.checkpoint is not None else 0
        seen = checkpointed = self._tuples_seen
        seams: list[_Seam] = []
        steps = 0
        for epoch in range(start_epoch, self.epochs):
            n_steps = self.planner.sync_steps(epoch, bs)
            for step in range(start_step if epoch == start_epoch else 0, n_steps):
                if self.fault_plan is not None:
                    budget = self.fault_plan.tuples_before_crash(seen)
                    if budget is not None and budget < bs:
                        # The crash lands inside the next global batch: die
                        # at the last durable sync point like a killed process
                        # would (the checkpoint already exists).
                        seams.append(_Seam(steps, epoch, step, seen, "crash"))
                        return seams
                steps += 1
                seen += bs
                if every > 0 and step + 1 < n_steps and seen - checkpointed >= every:
                    seams.append(_Seam(steps, epoch, step + 1, seen, "checkpoint"))
                    checkpointed = seen
            seams.append(_Seam(steps, epoch, n_steps, seen, "epoch"))
            checkpointed = seen
        return seams

    def _sync_epoch(self, seams, start_step, grads, fleet, history) -> int:
        """Join the workers at each of one epoch's seams; returns its steps.

        The epoch-end seam is left open: ``run`` evaluates and checkpoints
        inside it like every mode does, then releases the workers.
        """
        for seam in seams:
            fleet.rendezvous()  # A: every replica is in the idle slab
            self._adopt_replicas(grads[seam.steps & 1], fleet)
            self._tuples_seen = seam.tuples_seen
            if seam.kind == "crash":
                self.fault_plan.fire_crash(
                    f"parallel sync epoch {seam.epoch}, step {seam.cursor}"
                )
            if seam.kind == "checkpoint":
                self._save_checkpoint(seam.epoch, seam.cursor * self.global_batch_size, history)
                fleet.rendezvous()  # B: workers resume
        return max(0, seams[-1].cursor - start_step)

    def _adopt_replicas(self, replicas: np.ndarray, fleet) -> None:
        """Take the workers' state at a seam: their replicas must be the
        same bits (they applied the same updates to the same start), so any
        one is the model; worker 0 also sends the optimiser's slots when
        there is a checkpoint to put them in."""
        bits = replicas.view(np.uint64)
        if not (bits == bits[0]).all():
            raise WorkerError("parallel workers' model replicas diverged")
        self.model.load_parameter_vector(replicas[0])
        if self.checkpoint is not None:
            self.optimizer.load_state_dict(fleet.receive(BARRIER_TIMEOUT_S)[2])

    def _epoch_mode_epoch(self, epoch, params, fleet) -> None:
        fleet.rendezvous()  # A: averaged params published
        vectors: dict[int, np.ndarray] = {}
        counts: dict[int, int] = {}
        while len(vectors) < self.n_workers:
            msg = fleet.receive(BARRIER_TIMEOUT_S)
            _, worker_id, msg_epoch, vec, count = msg
            if msg_epoch != epoch:
                raise WorkerError(
                    f"protocol error: got epoch {msg_epoch} model during epoch {epoch}"
                )
            vectors[worker_id] = vec
            counts[worker_id] = count
        order = sorted(vectors)
        averaged = weighted_average_models(
            [vectors[w] for w in order], [counts[w] for w in order]
        )
        self.model.load_parameter_vector(averaged)
        params[:] = averaged
        self._tuples_seen += int(sum(counts.values()))
        fleet.rendezvous()  # B: release workers into next epoch

    def _async_epoch(self, params, fleet) -> None:
        fleet.rendezvous()  # A: epoch start
        fleet.rendezvous()  # B: all workers finished the epoch
        self.model.load_parameter_vector(params)
        self._tuples_seen += int(self.eval_set.n_tuples)

    # ------------------------------------------------------------------
    def _save_checkpoint(self, epoch: int, cursor: int, history: ConvergenceHistory) -> None:
        if self.checkpoint is None:
            return
        save_checkpoint(
            self.checkpoint.path,
            self.model,
            epoch=epoch,
            cursor=cursor,
            tuples_seen=self._tuples_seen,
            optimizer_state=self.optimizer.state_dict(),
            history=[asdict(r) for r in history.records],
            meta={"strategy": f"parallel-{self.mode}", **self._knobs()},
        )

    def _knobs(self) -> dict:
        """What pins the update sequence: checkpointed, and held equal on resume."""
        return {
            "mode": self.mode,
            "n_workers": self.n_workers,
            "global_batch_size": self.global_batch_size,
            "buffer_blocks": self.planner.buffer_blocks,
            "index_seed": self.seed,
            "model": type(self.model).__name__,
        }

    def _restore(self, resume_from, history: ConvergenceHistory) -> tuple[int, int]:
        state = restore_run(resume_from, self.model, self.optimizer, history, self._knobs())
        if state.cursor % self.global_batch_size != 0:
            raise ValueError(
                f"cursor {state.cursor} is not a sync-point multiple of the "
                f"global batch size {self.global_batch_size}"
            )
        if self.mode == "async" and state.cursor:
            raise ValueError("async mode only supports epoch-boundary resume")
        self._tuples_seen = state.tuples_seen
        return state.epoch, state.cursor // self.global_batch_size


# ----------------------------------------------------------------------
# Single-process reference (Section 5.2 equivalence)
# ----------------------------------------------------------------------


def sync_reference_trainer(
    path: str | Path,
    model: SupervisedModel,
    *,
    n_workers: int,
    epochs: int,
    global_batch_size: int,
    buffer_blocks: int = 2,
    seed: int = 0,
    schedule=None,
    task: str = "binary",
) -> Trainer:
    """The single-process run a sync parallel run must match (≈1e-12).

    Mini-batch SGD of ``global_batch_size`` over the interleaved multi-
    process stream: mean-of-equal-slice-means equals the global batch
    mean, so per-batch gradient averaging across ``PN`` processes applies
    numerically the same update sequence as this trainer.
    """
    planner = ShardPlanner.for_block_file(path, n_workers, buffer_blocks, seed=seed)
    orders = [planner.epoch_indices(e, global_batch_size) for e in range(epochs)]
    train = load_block_dataset(path, task=task)
    return Trainer(
        model,
        train,
        fixed_order_source(f"mp-sim-{n_workers}w", orders),
        epochs=epochs,
        schedule=schedule if schedule is not None else ExponentialDecay(0.01),
        batch_size=global_batch_size,
        optimizer=SGD(model),
    )
