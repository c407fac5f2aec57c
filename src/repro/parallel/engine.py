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
                                            probe should_stop
    barrier B  ◀───────────────────────    barrier B

The seams are a pure function of the run (:meth:`ParallelTrainer._sync_seams`):
every epoch end and the ``checkpoint.every_tuples`` cadence.  The
coordinator computes them once and the workers get the step counts with
their task.

``epoch`` mode syncs once per epoch (tuple-count-weighted model average
over the results queue).  Both modes replay: the same run is the same
update sequence.

The coordinator is a :func:`~repro.ml.trainer.run_epochs` client like every
other trainer: the shared loop restores a checkpoint (the run's file, when
it exists), saves it (initial, cadence, epoch end), counts tuples and keeps
the history, and the coordinator's update units are the step ranges between
seams (one unit an epoch in ``epoch`` mode).  Worker 0 ships its optimiser
state with its replica when a checkpoint is configured, and because worker
streams are ``(seed, epoch)``-pure, a resumed run skips to the stored step
and continues over the *exact* remaining update sequence — stopped and
killed sync runs finish bit-exact (``tests/test_parallel_engine.py``,
``tests/test_sync_protocol.py``).

Failure discipline: a dead or raising worker aborts both barriers;
the coordinator translates that into :class:`WorkerError` (with the
worker's traceback) and closes the fleet, which reaps its children — no
leaked processes.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.distributed import MultiProcessCorgiPile
from ..obs import LoaderMetrics, StorageMetrics
from ..data.dataset import Dataset
from ..ml.models.base import SupervisedModel
from ..ml.optim import SGD, Optimizer
from ..ml.persistence import model_to_bytes
from ..ml.schedules import ExponentialDecay
from ..ml.trainer import (
    CheckpointConfig,
    ConvergenceHistory,
    epoch_record,
    resume_state,
    run_epochs,
)
from ..storage.blockfile import BlockFileReader
from ..storage.codec import TupleBatch
from .aggregate import AGGREGATION_MODES, weighted_average_models
from .fleet import WorkerError, WorkerFleet, running_fleet
from .shm import shared_arrays
from .worker import BARRIER_TIMEOUT_S, WorkerConfig, worker_main

__all__ = [
    "WorkerError",
    "ParallelResult",
    "ParallelTrainer",
    "load_block_dataset",
]

@dataclass(frozen=True)
class _Seam:
    """One point of a sync run at which the coordinator joins the workers."""

    steps: int  # global steps the run has applied by then (what workers count)
    epoch: int
    cursor: int  # steps of ``epoch`` applied: its step count at an epoch end
    tuples_seen: int
    checkpoint: bool  # a cadence seam (else the epoch's end)


def load_block_dataset(path: str | Path, task: str = "binary") -> Dataset:
    """Materialise a block file back into an in-memory :class:`Dataset`.

    Blocks store contiguous ascending tuple ids, so reading them in block
    order *is* id order — what the coordinator and the hopper evaluate
    each epoch on.
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
        #: Probed at every coordinator rendezvous: a sync run notices a stop
        #: request at its next seam (see WorkerFleet).
        self.should_stop = should_stop
        #: The fleet to run on; ``None`` opens one for the length of ``run``.
        self.fleet = fleet
        self.planner = MultiProcessCorgiPile.for_block_file(
            self.path, n_workers, buffer_blocks, seed=self.seed
        )
        self.n_workers = self.planner.n_workers
        self.planner.per_worker_batch(self.global_batch_size)  # validates divisibility
        self.eval_set = (
            eval_set if eval_set is not None else load_block_dataset(self.path, task=task)
        )

    # ------------------------------------------------------------------
    def run(self) -> ParallelResult:
        """Train; when the checkpoint file exists, continue the run it saved."""
        history = ConvergenceHistory(
            strategy=f"parallel-{self.mode}", model=type(self.model).__name__
        )
        bs = self.global_batch_size
        dim = int(self.model.parameter_vector().size)
        seams: list[_Seam] = []
        epoch_walls: list[float] = []
        steps = 0  # sync steps this run applied (one an epoch in epoch mode)
        armed = False
        # The fleet is entered last so an abort reaps it before the arrays'
        # names are unlinked (see repro.parallel.shm).
        with (
            shared_arrays((dim,), (2, self.n_workers, dim)) as ((params, grads), handles),
            running_fleet(self.fleet, self.n_workers) as fleet,
        ):

            def arm(epoch: int, cursor: int, tuples_seen: int) -> None:
                # The workers start from the (restored) model at the run's first unit.
                nonlocal armed
                if cursor % bs != 0:
                    raise ValueError(
                        f"cursor {cursor} is not a sync-point multiple of the "
                        f"global batch size {bs}"
                    )
                if self.mode == "sync":
                    seams.extend(self._sync_seams(epoch, cursor // bs, tuples_seen))
                params[:] = self.model.parameter_vector()
                replica = copy.copy(self.optimizer)
                replica.model = None  # each worker binds its own
                task = dict(
                    n_workers=self.n_workers, path=self.path, seed=self.seed,
                    model_blob=model_to_bytes(self.model), epochs=self.epochs,
                    buffer_blocks=self.planner.buffer_blocks, mode=self.mode,
                    global_batch_size=bs, schedule=self.schedule, start_epoch=epoch,
                    start_step=cursor // bs, optimizer=replica,
                    seams=tuple(seam.steps for seam in seams),
                    ship_optimizer_state=self.checkpoint is not None,
                )
                fleet.arm(
                    worker_main,
                    [WorkerConfig(worker_id=w, **task) for w in range(self.n_workers)],
                    handles,
                    label="parallel",
                    should_stop=self.should_stop,
                )
                armed = True

            def units(epoch: int, lr: float, cursor: int, tuples_seen: int):
                nonlocal steps
                if not armed:
                    arm(epoch, cursor, tuples_seen)
                t0 = time.perf_counter()
                if self.mode == "sync":
                    # Each seam closes one unit; the epoch-end seam is left
                    # open for ``epoch_end``, after the evaluation and save.
                    for seam in [s for s in seams if s.epoch == epoch]:
                        fleet.rendezvous()  # A: every replica is in the idle slab
                        self._adopt_replicas(grads[seam.steps & 1], fleet)
                        yield (
                            seam.tuples_seen - tuples_seen,
                            seam.cursor * bs if seam.checkpoint else None,
                        )
                        tuples_seen = seam.tuples_seen
                        if seam.checkpoint:
                            fleet.rendezvous()  # B: workers resume
                    steps += self.planner.sync_steps(epoch, bs) - cursor // bs
                else:
                    yield self._epoch_mode_epoch(epoch, params, fleet), None
                    steps += 1
                epoch_walls.append(time.perf_counter() - t0)

            def epoch_end(record) -> bool:
                if self.mode == "sync":
                    fleet.rendezvous()  # B of the epoch-end seam: workers resume
                return False

            run_epochs(
                self.model,
                self.optimizer,
                units,
                lambda epoch, lr, tuples_seen: epoch_record(
                    self.model, self.eval_set, self.test_set, epoch, lr, tuples_seen
                ),
                history=history,
                epochs=self.epochs,
                schedule=self.schedule,
                knobs=self._knobs(),
                meta={"strategy": history.strategy},
                checkpoint=self.checkpoint,
                resume=resume_state(self.checkpoint),
                epoch_end=epoch_end,
                span="parallel.epoch",
            )
            if not armed:  # resumed a finished run: the workers have nothing to do
                arm(self.epochs, 0, 0)
            per_worker, merged_loader, merged_storage, worker_tuples = fleet.collect()

        return ParallelResult(
            model=self.model,
            history=history,
            mode=self.mode,
            n_workers=self.n_workers,
            epochs_run=len(epoch_walls),
            sync_steps=steps,
            tuples_processed=worker_tuples,
            epoch_walls=epoch_walls,
            loader_stats=merged_loader,
            storage_stats=merged_storage,
            per_worker=per_worker,
            plan=self.planner.describe(),
        )

    # ------------------------------------------------------------------
    def _sync_seams(self, start_epoch: int, start_step: int, seen: int) -> list[_Seam]:
        """Where the coordinator joins a sync run, in order: every epoch end
        and the checkpoint cadence.  A pure function of the plan and the
        resume point (``seen`` tuples applied by then)."""
        bs = self.global_batch_size
        every = self.checkpoint.every_tuples if self.checkpoint is not None else 0
        checkpointed = seen
        seams: list[_Seam] = []
        steps = 0
        for epoch in range(start_epoch, self.epochs):
            n_steps = self.planner.sync_steps(epoch, bs)
            for step in range(start_step if epoch == start_epoch else 0, n_steps):
                steps += 1
                seen += bs
                if every > 0 and step + 1 < n_steps and seen - checkpointed >= every:
                    seams.append(_Seam(steps, epoch, step + 1, seen, True))
                    checkpointed = seen
            seams.append(_Seam(steps, epoch, n_steps, seen, False))
            checkpointed = seen
        return seams

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

    def _epoch_mode_epoch(self, epoch, params, fleet) -> int:
        """One epoch-mode epoch: the workers' tuple-count-weighted model
        average becomes the model; returns the tuples they applied."""
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
        fleet.rendezvous()  # B: release workers into next epoch
        return int(sum(counts.values()))

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
