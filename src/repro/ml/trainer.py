"""The training loop: any model × any shuffle strategy × any optimiser.

This is the statistical-efficiency half of the evaluation harness.  The
trainer consumes an *index source* — anything exposing
``epoch_indices(epoch) -> array`` (a :class:`~repro.shuffle.base.ShuffleStrategy`,
a :class:`~repro.core.corgipile.CorgiPileShuffle`, or an adapter around the
multi-process simulation) — and performs SGD in exactly that order:

* ``batch_size == 1`` with no optimiser: the paper's *standard SGD*, one
  model update per tuple, via the models' fast ``step_example`` path;
* ``batch_size > 1`` (or an explicit optimiser, e.g. Adam): mini-batch mode.

Per-epoch train loss / train metric / test metric are recorded into a
:class:`ConvergenceHistory`, the raw material of every convergence figure.

With a :class:`CheckpointConfig` the trainer periodically persists a
resumable snapshot (model, optimiser slots, epoch + in-epoch cursor) via
:mod:`repro.ml.persistence`; because index sources derive each epoch's order
purely from ``(seed, epoch)``, ``run(resume_from=...)`` continues a killed
run over the *exact* remaining visit order.  Checkpoint boundaries also
chunk the fused/mini-batch kernels, so a resumed run and an uninterrupted
run with the same cadence apply numerically identical update sequences —
that is the resume-equivalence guarantee the chaos suite asserts at 1e-12.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .. import obs
from ..data.dataset import Dataset
from ..data.sparse import SparseMatrix
from .optim import Optimizer, SGD
from .models.base import SupervisedModel
from .persistence import CheckpointState, load_checkpoint, save_checkpoint
from .schedules import ExponentialDecay

__all__ = [
    "IndexSource",
    "EpochRecord",
    "ConvergenceHistory",
    "EarlyStopping",
    "CheckpointConfig",
    "TrainInterrupted",
    "restore_run",
    "Trainer",
]


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to persist resumable training state.

    ``every_tuples == 0`` checkpoints only at epoch boundaries; a positive
    value additionally checkpoints every that-many tuples *within* an epoch
    (rounded down to a whole number of mini-batches in mini-batch mode).
    Cadence is part of the numeric contract: kernels are chunked at
    checkpoint boundaries, so bit-exact comparisons must use equal cadence.
    """

    path: str | Path
    every_tuples: int = 0

    def __post_init__(self) -> None:
        if self.every_tuples < 0:
            raise ValueError("every_tuples must be non-negative")


class TrainInterrupted(Exception):
    """A training loop's ``should_stop`` probe returned true.

    Raised at a unit boundary (a fused run, a mini-batch, a sync point, a
    hopper slot), never mid-update; the run's last checkpoint is intact, so
    running the same statement again over it resumes bit-exactly.
    """


@dataclass
class EarlyStopping:
    """Stop training when the monitored metric plateaus.

    Monitors the test score when a test set is supplied, otherwise the
    (negated) training loss.  Training stops after ``patience`` consecutive
    epochs without an improvement of at least ``min_delta``.  With
    ``restore_best`` the model parameters are rolled back to the best epoch
    seen (a lightweight in-memory checkpoint).
    """

    patience: int = 3
    min_delta: float = 1e-4
    restore_best: bool = True

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.min_delta < 0:
            raise ValueError("min_delta must be non-negative")
        self._best: float | None = None
        self._best_params: dict | None = None
        self._stale = 0

    def update(self, metric: float, params: dict) -> bool:
        """Record this epoch's metric; return True when training should stop."""
        if self._best is None or metric > self._best + self.min_delta:
            self._best = metric
            self._stale = 0
            if self.restore_best:
                self._best_params = {k: v.copy() for k, v in params.items()}
            return False
        self._stale += 1
        return self._stale >= self.patience

    def restore(self, params: dict) -> None:
        if self.restore_best and self._best_params is not None:
            for key, value in self._best_params.items():
                params[key][...] = value

    @property
    def best_metric(self) -> float | None:
        return self._best


class IndexSource(Protocol):
    """Anything that yields a tuple visit order per epoch."""

    name: str

    def epoch_indices(self, epoch: int) -> np.ndarray: ...


@dataclass(frozen=True)
class EpochRecord:
    """Metrics captured at the end of one epoch."""

    epoch: int
    lr: float
    train_loss: float
    train_score: float
    test_score: float | None
    tuples_seen: int


@dataclass
class ConvergenceHistory:
    """The per-epoch metric series of one training run."""

    strategy: str
    model: str
    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def epochs(self) -> int:
        return len(self.records)

    @property
    def final(self) -> EpochRecord:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1]

    @property
    def train_losses(self) -> list[float]:
        return [r.train_loss for r in self.records]

    @property
    def test_scores(self) -> list[float]:
        return [r.test_score for r in self.records if r.test_score is not None]

    def best_test_score(self) -> float:
        scores = self.test_scores
        if not scores:
            raise ValueError("no test scores recorded")
        return max(scores)

    def converged_test_score(self, tail: int = 4) -> float:
        """Mean test score over the last ``tail`` epochs.

        SGD's per-epoch accuracy jitters around its plateau (visibly so on
        our scaled datasets); averaging the tail is the stable estimate of
        the converged accuracy the paper's tables report.
        """
        scores = self.test_scores
        if not scores:
            raise ValueError("no test scores recorded")
        return float(np.mean(scores[-tail:]))

    def epochs_to_reach(self, score: float) -> int | None:
        """First epoch (1-based) whose test score reaches ``score``."""
        for record in self.records:
            if record.test_score is not None and record.test_score >= score:
                return record.epoch + 1
        return None


def restore_run(
    resume_from: CheckpointState | str | Path,
    model: SupervisedModel,
    optimizer: Optimizer | None,
    history: ConvergenceHistory,
    knobs: dict,
) -> CheckpointState:
    """Load a checkpoint into a run about to resume — for every trainer.

    ``knobs`` holds what this run would record under the same ``meta`` keys
    (``None`` = not known here).  One the checkpoint recorded differently
    means the resumed run would not continue the interrupted update
    sequence, so it is refused rather than silently diverging.  Returns the
    loaded state (``epoch``, ``cursor``, ``tuples_seen`` are the caller's).
    """
    state = (
        resume_from if isinstance(resume_from, CheckpointState) else load_checkpoint(resume_from)
    )
    for knob, have in knobs.items():
        want = state.meta.get(knob)
        # ``mode`` names the trainer that wrote the file, so it must be
        # there; another knob the file lacks is not held against it.
        if have is not None and want != have and (want is not None or knob == "mode"):
            raise ValueError(
                f"checkpoint was taken with {knob}={want!r}; resuming with "
                f"{have!r} would change the update sequence"
            )
    for key, value in state.model.params.items():
        model.params[key][...] = value
    if optimizer is not None:
        optimizer.load_state_dict(state.optimizer_state)
    elif state.optimizer_state:
        raise ValueError("checkpoint carries optimizer state but the run has no optimizer")
    for record in state.history:
        history.append(EpochRecord(**record))
    return state


class Trainer:
    """Runs SGD over a dataset in the order dictated by an index source."""

    def __init__(
        self,
        model: SupervisedModel,
        train: Dataset,
        index_source: IndexSource,
        *,
        epochs: int,
        schedule=None,
        batch_size: int = 1,
        optimizer: Optimizer | None = None,
        test: Dataset | None = None,
        early_stopping: EarlyStopping | None = None,
        callbacks: list | None = None,
        fused: bool = False,
        checkpoint: CheckpointConfig | None = None,
        fault_plan=None,
    ):
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.train_set = train
        self.index_source = index_source
        self.epochs = int(epochs)
        self.schedule = schedule if schedule is not None else ExponentialDecay(0.01)
        self.batch_size = int(batch_size)
        self.optimizer = optimizer
        if self.batch_size > 1 and self.optimizer is None:
            self.optimizer = SGD(model)
        self.test_set = test
        self.early_stopping = early_stopping
        # Fused mode routes the per-tuple epoch through the models'
        # step_block kernels (same visit order and update-per-tuple
        # semantics; mini-batch mode is already vectorised and unaffected).
        self.fused = bool(fused)
        # Each callback is called as callback(epoch, model, record) after
        # the end-of-epoch evaluation (e.g. theory trackers, custom logs).
        self.callbacks = list(callbacks or [])
        self.checkpoint = checkpoint
        # Duck-typed fault plan (repro.faults.FaultPlan): consulted for
        # "crash after N tuples" injection; None in normal runs.
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    def run(
        self, resume_from: CheckpointState | str | Path | None = None
    ) -> ConvergenceHistory:
        history = ConvergenceHistory(
            strategy=getattr(self.index_source, "name", type(self.index_source).__name__),
            model=type(self.model).__name__,
        )
        start_epoch = 0
        start_cursor = 0
        tuples_seen = 0
        if resume_from is not None:
            # Same index seed ⇒ same (seed, epoch)-pure visit orders ⇒ the
            # stored cursor pins the exact remaining order.
            state = restore_run(
                resume_from, self.model, self.optimizer, history, self._knobs()
            )
            start_epoch, start_cursor = state.epoch, state.cursor
            tuples_seen = state.tuples_seen
        # Initial checkpoint: even a crash before the first cadence point
        # leaves a resumable file behind.
        self._save_checkpoint(start_epoch, start_cursor, tuples_seen, history)
        for epoch in range(start_epoch, self.epochs):
            lr = float(self.schedule(epoch))
            order = np.asarray(self.index_source.epoch_indices(epoch), dtype=np.int64)
            cursor = start_cursor if epoch == start_epoch else 0
            with obs.span(
                "ml.epoch", epoch=epoch, lr=lr, strategy=history.strategy
            ) as sp:
                tuples_seen = self._run_epoch(
                    order, lr, epoch, cursor, tuples_seen, history
                )
                sp.set(tuples_seen=tuples_seen)
            obs.inc("ml.epochs")
            with obs.span("ml.evaluate", epoch=epoch):
                record = self._evaluate(epoch, lr, tuples_seen)
            history.append(record)
            for callback in self.callbacks:
                callback(epoch, self.model, record)
            self._save_checkpoint(epoch + 1, 0, tuples_seen, history)
            if self.early_stopping is not None:
                metric = (
                    record.test_score
                    if record.test_score is not None
                    else -record.train_loss
                )
                if self.early_stopping.update(metric, self.model.params):
                    self.early_stopping.restore(self.model.params)
                    break
        return history

    # ------------------------------------------------------------------
    def _run_epoch(
        self,
        order: np.ndarray,
        lr: float,
        epoch: int,
        cursor: int,
        tuples_seen: int,
        history: ConvergenceHistory,
    ) -> int:
        """Apply ``order[cursor:]``, checkpoint-chunked; returns new tuples_seen.

        Chunk boundaries sit at fixed multiples of the checkpoint cadence
        *within the epoch* (not relative to the resume point), so a resumed
        run replays exactly the chunk sequence the uninterrupted run would
        have used — the kernels flush their lazy L2 scaling per chunk, which
        makes the chunking part of the numeric result.
        """
        n = int(order.size)
        while cursor < n:
            hi = self._next_boundary(cursor, n)
            chunk = order[cursor:hi]
            if self.fault_plan is not None:
                budget = self.fault_plan.tuples_before_crash(tuples_seen)
                if budget is not None and budget < chunk.size:
                    if budget > 0:
                        self._apply_chunk(chunk[:budget], lr)
                    self.fault_plan.fire_crash(f"epoch {epoch}, tuple {cursor + budget}")
            self._apply_chunk(chunk, lr)
            cursor = hi
            tuples_seen += int(chunk.size)
            if (
                self.checkpoint is not None
                and self.checkpoint.every_tuples > 0
                and cursor < n
            ):
                self._save_checkpoint(epoch, cursor, tuples_seen, history)
        return tuples_seen

    def _next_boundary(self, cursor: int, n: int) -> int:
        every = self.checkpoint.every_tuples if self.checkpoint is not None else 0
        if every <= 0:
            return n
        if self.batch_size > 1:
            # Keep mini-batch composition identical with and without
            # checkpointing: boundaries land between batches only.
            every = max(self.batch_size, (every // self.batch_size) * self.batch_size)
        return min(n, (cursor // every + 1) * every)

    def _apply_chunk(self, order: np.ndarray, lr: float) -> None:
        if self.batch_size == 1 and self.optimizer is None:
            if self.fused:
                self._fused_epoch(order, lr)
            else:
                self._per_tuple_epoch(order, lr)
        else:
            self._mini_batch_epoch(order, lr)

    # ------------------------------------------------------------------
    def _save_checkpoint(
        self, epoch: int, cursor: int, tuples_seen: int, history: ConvergenceHistory
    ) -> None:
        if self.checkpoint is None:
            return
        save_checkpoint(
            self.checkpoint.path,
            self.model,
            epoch=epoch,
            cursor=cursor,
            tuples_seen=tuples_seen,
            optimizer_state=(
                self.optimizer.state_dict() if self.optimizer is not None else {}
            ),
            history=[asdict(r) for r in history.records],
            meta={"strategy": history.strategy, "epochs": self.epochs, **self._knobs()},
        )

    def _knobs(self) -> dict:
        """What pins the update sequence: checkpointed, and held equal on resume."""
        return {
            "model": type(self.model).__name__,
            "batch_size": self.batch_size,
            "fused": self.fused,
            "index_seed": getattr(self.index_source, "seed", None),
        }

    def _per_tuple_epoch(self, order: np.ndarray, lr: float) -> None:
        model = self.model
        X, y = self.train_set.X, self.train_set.y
        # Convert labels/indices to native Python scalars once per epoch so
        # the inner loop carries no per-tuple float()/int() boxing.
        labels = np.asarray(y, dtype=np.float64).tolist()
        positions = order.tolist()
        if isinstance(X, SparseMatrix):
            row = X.row
            for i in positions:
                model.step_example(row(i), labels[i], lr)
        else:
            for i in positions:
                model.step_example(X[i], labels[i], lr)

    def _fused_epoch(self, order: np.ndarray, lr: float) -> None:
        obs.inc("ml.fused_steps")
        obs.inc("ml.fused_tuples", int(order.size))
        self.model.step_block(
            self.train_set.X,
            np.asarray(self.train_set.y, dtype=np.float64),
            lr,
            order=order,
        )

    def _mini_batch_epoch(self, order: np.ndarray, lr: float) -> None:
        X, y = self.train_set.X, self.train_set.y
        for lo in range(0, order.size, self.batch_size):
            batch_idx = order[lo : lo + self.batch_size]
            if isinstance(X, SparseMatrix):
                xb = X.take_rows(batch_idx)
            else:
                xb = X[batch_idx]
            grads = self.model.gradient(xb, y[batch_idx])
            self.optimizer.step(grads, lr)

    def _evaluate(self, epoch: int, lr: float, tuples_seen: int) -> EpochRecord:
        train_loss = self.model.loss(self.train_set.X, self.train_set.y)
        train_score = self.model.score(self.train_set.X, self.train_set.y)
        test_score = (
            self.model.score(self.test_set.X, self.test_set.y)
            if self.test_set is not None
            else None
        )
        return EpochRecord(
            epoch=epoch,
            lr=lr,
            train_loss=train_loss,
            train_score=train_score,
            test_score=test_score,
            tuples_seen=tuples_seen,
        )


def fixed_order_source(name: str, orders: Sequence[np.ndarray]) -> IndexSource:
    """Wrap precomputed per-epoch orders (e.g. from the multi-process sim)."""

    class _Fixed:
        def __init__(self):
            self.name = name

        def epoch_indices(self, epoch: int) -> np.ndarray:
            return orders[epoch % len(orders)]

    return _Fixed()
