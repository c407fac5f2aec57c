"""The training loop: any model × any shuffle strategy × any optimiser.

:func:`run_epochs` is the one update-unit loop — resume, checkpoint
cadence, stop probe, history — that every single-process driver runs:
:class:`Trainer` here, :func:`~repro.ml.streaming.train_streaming`, the
engine's :class:`~repro.db.operators.SGDOperator`.  Each supplies only
where its update units come from and how an epoch is evaluated.

:class:`Trainer` is the statistical-efficiency half of the evaluation
harness.  It consumes an *index source* — anything exposing
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

from contextlib import closing
from dataclasses import asdict, dataclass, field, replace
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
    "epoch_record",
    "restore_run",
    "apply_unit",
    "run_epochs",
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


def epoch_record(
    model: SupervisedModel,
    train: Dataset | None,
    test: Dataset | None,
    epoch: int,
    lr: float,
    tuples_seen: int,
) -> EpochRecord:
    """The end-of-epoch metrics: loss/score on ``train`` (NaN without one —
    nothing is materialised for it), score on ``test`` when given."""
    return EpochRecord(
        epoch=epoch,
        lr=lr,
        train_loss=model.loss(train.X, train.y) if train is not None else float("nan"),
        train_score=model.score(train.X, train.y) if train is not None else float("nan"),
        test_score=model.score(test.X, test.y) if test is not None else None,
        tuples_seen=tuples_seen,
    )


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


def apply_unit(
    model: SupervisedModel,
    optimizer: Optimizer | None,
    X,
    y: np.ndarray,
    lr: float,
    fused: bool,
    order: np.ndarray | None = None,
) -> None:
    """Apply one update unit: rows ``order`` of ``(X, y)``, all of them when omitted.

    With an optimiser the unit is one mini-batch step on its mean gradient;
    without, one model update per tuple in unit order — through the model's
    fused ``step_block`` kernel, or (``fused=False``) through the reference
    loop :meth:`SupervisedModel.step_block` itself, called unbound so a GLM's
    override does not stand in for the ``step_example`` sequence it is
    tested against.
    """
    if optimizer is not None:
        if order is not None:
            X = X.take_rows(order) if isinstance(X, SparseMatrix) else X[order]
            y = y[order]
        optimizer.step(model.gradient(X, y), lr)
    elif fused:
        obs.inc("ml.fused_steps")
        obs.inc("ml.fused_tuples", len(y) if order is None else len(order))
        model.step_block(X, y, lr, order)
    else:
        SupervisedModel.step_block(model, X, y, lr, order)


def run_epochs(
    model: SupervisedModel,
    optimizer: Optimizer | None,
    units,
    evaluate,
    *,
    history: ConvergenceHistory,
    epochs: int,
    schedule,
    fused: bool,
    knobs: dict,
    meta: dict | None = None,
    checkpoint: CheckpointConfig | None = None,
    resume_from: CheckpointState | str | Path | None = None,
    should_stop=None,
    epoch_end=None,
    span: str = "ml.epoch",
) -> ConvergenceHistory:
    """The update-unit loop every single-process trainer runs.

    Owns what comes *after* the visit order: resume (``restore_run`` against
    ``knobs``), the initial / cadence / epoch-end checkpoints (``knobs`` +
    ``meta`` recorded), the ``should_stop`` probe, ``tuples_seen`` and the
    history.  A client supplies what differs:

    * ``units(epoch, cursor, tuples_seen)`` — a generator over the epoch's
      update units after the first ``cursor`` (the client's own measure:
      rows, tuples, loader batches) as ``(X, y, order, seam)``, each handed
      to :func:`apply_unit`.  ``seam`` is the cursor once the unit is
      applied — a point the run may be saved at, stopped at and resumed
      from — or ``None`` where the client allows no seam (the short tail of
      a pass, a unit cut short by an injected crash).  Epoch-local work
      (rescan, wall clocks, fault injection) sits around its ``yield``;
      the generator is closed when the epoch ends, however it ends.
    * ``evaluate(epoch, lr, tuples_seen) -> EpochRecord``.
    * ``epoch_end(record) -> bool`` (optional), called after the epoch-end
      save; true ends the run early.

    Cadence: a save at the first seam ``checkpoint.every_tuples`` or more
    tuples after the last one, counted from the epoch's (or the resumed
    run's) first unit — so a client whose units end on multiples of the
    cadence saves exactly there.
    """
    start = cursor = tuples_seen = 0
    if resume_from is not None:
        state = restore_run(resume_from, model, optimizer, history, knobs)
        start, cursor, tuples_seen = state.epoch, state.cursor, state.tuples_seen
    every = checkpoint.every_tuples if checkpoint is not None else 0

    def save(epoch: int, cursor: int) -> None:
        if checkpoint is None:
            return
        save_checkpoint(
            checkpoint.path,
            model,
            epoch=epoch,
            cursor=cursor,
            tuples_seen=tuples_seen,
            optimizer_state=optimizer.state_dict() if optimizer is not None else {},
            history=[asdict(r) for r in history.records],
            meta={**knobs, **(meta or {})},
        )

    # Even a crash before the first cadence point leaves a resumable file.
    save(start, cursor)
    for epoch in range(start, epochs):
        lr = float(schedule(epoch))
        since_save = 0
        with obs.span(span, epoch=epoch, lr=lr, strategy=history.strategy) as sp:
            with closing(units(epoch, cursor, tuples_seen)) as stream:
                for X, y, order, seam in stream:
                    apply_unit(model, optimizer, X, y, lr, fused, order)
                    n_rows = len(y) if order is None else len(order)
                    tuples_seen += n_rows
                    since_save += n_rows
                    if seam is None:
                        continue
                    if 0 < every <= since_save:
                        save(epoch, seam)
                        since_save = 0
                    if should_stop is not None and should_stop():
                        raise TrainInterrupted(f"stopped in epoch {epoch} after {seam} tuples")
            sp.set(tuples_seen=tuples_seen)
        cursor = 0
        obs.inc(span + "s")  # ml.epochs / db.epochs
        history.append(evaluate(epoch, lr, tuples_seen))
        save(epoch + 1, 0)
        if epoch_end is not None and epoch_end(history.final):
            break
    return history


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
        # No optimiser = the paper's standard SGD, one update per tuple.
        self.optimizer = optimizer
        if self.batch_size > 1 and self.optimizer is None:
            self.optimizer = SGD(model)
        self.test_set = test
        self.early_stopping = early_stopping
        # Fused mode routes the per-tuple epoch through the models'
        # step_block kernels (same visit order and update-per-tuple
        # semantics; mini-batch mode is already vectorised and unaffected).
        self.fused = bool(fused)
        # Each callback is called as callback(epoch, model, record) once the
        # epoch is evaluated and saved (e.g. theory trackers, custom logs).
        self.callbacks = list(callbacks or [])
        self.checkpoint = checkpoint
        # Duck-typed fault plan (repro.faults.FaultPlan): consulted for
        # "crash after N tuples" injection; None in normal runs.
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    def run(
        self, resume_from: CheckpointState | str | Path | None = None
    ) -> ConvergenceHistory:
        """Train; with ``resume_from``, continue a killed run.

        Same index seed ⇒ same (seed, epoch)-pure visit orders ⇒ the stored
        cursor pins the exact remaining order.
        """
        history = ConvergenceHistory(
            strategy=getattr(self.index_source, "name", type(self.index_source).__name__),
            model=type(self.model).__name__,
        )
        checkpoint = self.checkpoint
        if checkpoint is not None:
            checkpoint = replace(checkpoint, every_tuples=self._cadence())
        return run_epochs(
            self.model,
            self.optimizer,
            self._units,
            self._evaluate,
            history=history,
            epochs=self.epochs,
            schedule=self.schedule,
            fused=self.fused,
            knobs=self._knobs(),
            meta={"strategy": history.strategy, "epochs": self.epochs},
            checkpoint=checkpoint,
            resume_from=resume_from,
            epoch_end=self._epoch_end,
        )

    # ------------------------------------------------------------------
    def _cadence(self) -> int:
        """Tuples between in-epoch checkpoints (0 = epoch ends only)."""
        every = self.checkpoint.every_tuples if self.checkpoint is not None else 0
        if every > 0 and self.batch_size > 1:
            # Keep mini-batch composition identical with and without
            # checkpointing: boundaries land between batches only.
            every = max(self.batch_size, (every // self.batch_size) * self.batch_size)
        return every

    def _units(self, epoch: int, cursor: int, tuples_seen: int):
        """``order[cursor:]`` as update units, checkpoint-chunked.

        Chunk boundaries sit at fixed multiples of the checkpoint cadence
        *within the epoch* (not relative to the resume point), so a resumed
        run replays exactly the chunk sequence the uninterrupted run would
        have used — the kernels flush their lazy L2 scaling per chunk, which
        makes the chunking part of the numeric result.  A per-tuple chunk is
        one unit (``step_block(..., order=)``: no gather copy); a mini-batch
        chunk is cut into ``batch_size`` units.
        """
        order = np.asarray(self.index_source.epoch_indices(epoch), dtype=np.int64)
        X, y = self.train_set.X, self.train_set.y
        n = int(order.size)
        every = self._cadence()
        step = self.batch_size if self.optimizer is not None else n
        while cursor < n:
            hi = min(n, (cursor // every + 1) * every) if every else n
            crash_at = None
            if self.fault_plan is not None:
                budget = self.fault_plan.tuples_before_crash(tuples_seen)
                if budget is not None and budget < hi - cursor:
                    # The crash lands mid-chunk: apply what precedes it
                    # (no seam — that state is lost), then die.
                    hi = crash_at = cursor + budget
            for lo in range(cursor, hi, step):
                end = min(lo + step, hi)
                seam = None if crash_at is not None or end == n else end
                yield X, y, order[lo:end], seam
            if crash_at is not None:
                self.fault_plan.fire_crash(f"epoch {epoch}, tuple {crash_at}")
            tuples_seen += hi - cursor
            cursor = hi

    def _knobs(self) -> dict:
        """What pins the update sequence: checkpointed, and held equal on resume."""
        return {
            "model": type(self.model).__name__,
            "batch_size": self.batch_size,
            "fused": self.fused,
            "index_seed": getattr(self.index_source, "seed", None),
        }

    def _evaluate(self, epoch: int, lr: float, tuples_seen: int) -> EpochRecord:
        with obs.span("ml.evaluate", epoch=epoch):
            return epoch_record(
                self.model, self.train_set, self.test_set, epoch, lr, tuples_seen
            )

    def _epoch_end(self, record: EpochRecord) -> bool:
        for callback in self.callbacks:
            callback(record.epoch, self.model, record)
        if self.early_stopping is None:
            return False
        metric = record.test_score if record.test_score is not None else -record.train_loss
        stop = self.early_stopping.update(metric, self.model.params)
        if stop:
            self.early_stopping.restore(self.model.params)
        return stop


def fixed_order_source(name: str, orders: Sequence[np.ndarray]) -> IndexSource:
    """Wrap precomputed per-epoch orders (e.g. from the multi-process sim)."""

    class _Fixed:
        def __init__(self):
            self.name = name

        def epoch_indices(self, epoch: int) -> np.ndarray:
            return orders[epoch % len(orders)]

    return _Fixed()
