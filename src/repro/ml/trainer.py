"""The training loop: any model × any shuffle strategy × any optimiser.

:func:`run_epochs` is the one epoch loop — resume, checkpoint cadence,
stop probe, history — and every trainer runs it: :class:`Trainer` here,
the engine's :class:`~repro.db.operators.SGDOperator` and the data-parallel
coordinator :class:`~repro.parallel.engine.ParallelTrainer`.  Each supplies
only its update units and how an epoch is evaluated.  A block-file loader
needs no trainer: the caller's own loop over ``DataLoader`` batches, one
:func:`apply_unit` each, is the whole of Section 5's ``train(loader, model)``
(``examples/pytorch_style_pipeline.py``).

:class:`Trainer` is the statistical-efficiency half of the evaluation
harness.  It consumes an *index source* — anything exposing
``epoch_indices(epoch) -> array`` (a :class:`~repro.shuffle.base.ShuffleStrategy`,
a :class:`~repro.core.corgipile.CorgiPileShuffle`, or an adapter around the
multi-process simulation) — and performs SGD in exactly that order:

* ``batch_size == 1`` with no optimiser: the paper's *standard SGD*, one
  model update per tuple, via the models' ``step_block`` kernels;
* ``batch_size > 1`` (or an explicit optimiser, e.g. Adam): mini-batch mode.

Per-epoch train loss / train metric / test metric are recorded into a
:class:`ConvergenceHistory`, the raw material of every convergence figure.

With a :class:`CheckpointConfig` the trainer periodically persists a
resumable snapshot (model, optimiser slots, epoch + in-epoch cursor) via
:mod:`repro.ml.persistence`, and a run whose checkpoint file exists resumes
from it (:func:`resume_state`); because index sources derive each epoch's
order purely from ``(seed, epoch)``, it continues a killed run over the
*exact* remaining visit order.  Checkpoint boundaries also
chunk the per-tuple/mini-batch kernels, so a resumed run and an uninterrupted
run with the same cadence apply numerically identical update sequences —
that is the resume-equivalence guarantee the chaos suite asserts at 1e-12.
"""

from __future__ import annotations

import time
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
    "check_knobs",
    "resume_state",
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

    Raised at a unit boundary (a per-tuple unit, a mini-batch, a sync point, a
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
    train: Dataset,
    test: Dataset | None,
    epoch: int,
    lr: float,
    tuples_seen: int,
) -> EpochRecord:
    """The end-of-epoch metrics: loss/score on ``train``, one pass over it
    (:meth:`~repro.ml.models.base.SupervisedModel.loss_and_score`), and score
    on ``test`` when given."""
    train_loss, train_score = model.loss_and_score(train.X, train.y)
    return EpochRecord(
        epoch=epoch,
        lr=lr,
        train_loss=train_loss,
        train_score=train_score,
        test_score=model.score(test.X, test.y) if test is not None else None,
        tuples_seen=tuples_seen,
    )


def per_tuple_knob(optimizer: Optimizer | None) -> bool | None:
    """The ``fused`` checkpoint knob: ``True`` for a per-tuple run, which is
    always the ``step_block`` kernel, so a checkpoint an unfused run wrote
    (``fused=False``, an older build's default) is refused rather than
    resumed onto another update sequence; ``None`` (not checked) for a
    mini-batch run, which the flag never changed."""
    return True if optimizer is None else None


def check_knobs(recorded: dict, knobs: dict) -> None:
    """Refuse a resume whose ``knobs`` (``None`` = not known here) differ
    from the ``recorded`` ones: it would not continue the interrupted update
    sequence.  ``mode`` names the trainer that wrote the file, so it must be
    there; another knob the file lacks is not held against it."""
    for knob, have in knobs.items():
        want = recorded.get(knob)
        if have is not None and want != have and (want is not None or knob == "mode"):
            raise ValueError(
                f"checkpoint was taken with {knob}={want!r}; resuming with "
                f"{have!r} would change the update sequence"
            )


def resume_state(checkpoint: CheckpointConfig | None) -> CheckpointState | None:
    """The one resume rule, for every trainer: a run resumes if and only if
    its ``checkpoint`` file exists, and this is the state it resumes from
    (``None``: a fresh run).  :func:`restore_run` then refuses the state
    when its knobs differ from the run's."""
    if checkpoint is None or not Path(checkpoint.path).exists():
        return None
    return load_checkpoint(checkpoint.path)


def restore_run(
    state: CheckpointState,
    model: SupervisedModel,
    optimizer: Optimizer | None,
    history: ConvergenceHistory,
    knobs: dict,
) -> None:
    """Load a checkpoint's ``state`` into a run about to resume — for every
    trainer.  ``knobs`` are held against its ``meta`` (:func:`check_knobs`).
    """
    check_knobs(state.meta, knobs)
    for key, value in state.model.params.items():
        model.params[key][...] = value
    if optimizer is not None:
        optimizer.load_state_dict(state.optimizer_state)
    elif state.optimizer_state:
        raise ValueError("checkpoint carries optimizer state but the run has no optimizer")
    for record in state.history:
        history.append(EpochRecord(**record))


def apply_unit(
    model: SupervisedModel,
    optimizer: Optimizer | None,
    X,
    y: np.ndarray,
    lr: float,
    order: np.ndarray | None = None,
) -> None:
    """Apply one update unit: rows ``order`` of ``(X, y)``, all of them when omitted.

    With an optimiser the unit is one mini-batch step on its mean gradient;
    without, one model update per tuple in unit order through the model's
    ``step_block`` (a GLM's compiled kernel).  The unbound
    :meth:`SupervisedModel.step_block` — the ``step_example`` loop — is the
    reference the tests hold it to, and no trainer calls it.
    """
    if optimizer is not None:
        if order is not None:
            X = X.take_rows(order) if isinstance(X, SparseMatrix) else X[order]
            y = y[order]
        optimizer.step(model.gradient(X, y), lr)
    else:
        model.step_block(X, y, lr, order)


def run_epochs(
    model: SupervisedModel,
    optimizer: Optimizer | None,
    units,
    evaluate,
    *,
    history: ConvergenceHistory,
    epochs: int,
    schedule,
    knobs: dict,
    meta: dict | None = None,
    checkpoint: CheckpointConfig | None = None,
    resume: CheckpointState | None = None,
    should_stop=None,
    epoch_end=None,
    span: str = "ml.epoch",
) -> ConvergenceHistory:
    """The epoch loop every trainer runs.

    Owns what comes *after* the visit order: resume (``resume``, the state
    :func:`resume_state` read from ``checkpoint``, restored against
    ``knobs``), the initial / cadence / epoch-end checkpoints (``knobs`` +
    ``meta`` recorded), the ``should_stop`` probe (the one place a run
    stops short of a crash), ``tuples_seen``, the epoch span (``span``,
    with the units' ``wall_s``) and counter, and the history.  A client
    supplies what differs:

    * ``units(epoch, lr, cursor, tuples_seen)`` — a generator over the
      epoch's update units after the first ``cursor`` (the client's own
      measure: rows, tuples, loader batches, sync steps).  It applies each
      unit itself (:func:`apply_unit`, or a worker fleet's step) and then
      yields ``(n_rows, seam)``: ``seam`` is the cursor once the unit is
      applied — a point the run may be saved at, stopped at and resumed
      from — or ``None`` where the client allows no seam (the short tail of
      a pass).  Epoch-local work (rescan, wall clocks) sits around its ``yield``;
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
    if resume is not None:
        restore_run(resume, model, optimizer, history, knobs)
        start, cursor, tuples_seen = resume.epoch, resume.cursor, resume.tuples_seen
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
        epoch_start = tuples_seen
        with obs.span(span, epoch=epoch, lr=lr, strategy=history.strategy) as sp:
            t0 = time.perf_counter()
            try:
                with closing(units(epoch, lr, cursor, tuples_seen)) as stream:
                    for n_rows, seam in stream:
                        tuples_seen += n_rows
                        since_save += n_rows
                        if seam is None:
                            continue
                        if 0 < every <= since_save:
                            save(epoch, seam)
                            since_save = 0
                        if should_stop is not None and should_stop():
                            raise TrainInterrupted(f"stopped in epoch {epoch} after {seam} tuples")
            finally:
                # Counted per epoch, not per unit: a compiled-kernel unit is
                # ~20 us and a counter bump ~0.4 us of it.
                if optimizer is None:
                    obs.inc("ml.fused_tuples", tuples_seen - epoch_start)
            sp.set(tuples_seen=tuples_seen, wall_s=time.perf_counter() - t0)
        cursor = 0
        obs.inc(span + "s")  # ml.epochs / db.epochs / parallel.epochs
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
        checkpoint: CheckpointConfig | None = None,
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
        # Each callback is called as callback(epoch, model, record) once the
        # epoch is evaluated and saved (e.g. theory trackers, custom logs).
        self.callbacks = list(callbacks or [])
        self.checkpoint = checkpoint

    # ------------------------------------------------------------------
    def run(self) -> ConvergenceHistory:
        """Train; when the checkpoint file exists, continue the run it saved.

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
            knobs=self._knobs(),
            meta={"strategy": history.strategy, "epochs": self.epochs},
            checkpoint=checkpoint,
            resume=resume_state(checkpoint),
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

    def _units(self, epoch: int, lr: float, cursor: int, tuples_seen: int):
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
            for lo in range(cursor, hi, step):
                end = min(lo + step, hi)
                apply_unit(self.model, self.optimizer, X, y, lr, order[lo:end])
                yield end - lo, None if end == n else end
            cursor = hi

    def _knobs(self) -> dict:
        """What pins the update sequence: checkpointed, and held equal on resume."""
        return {
            "model": type(self.model).__name__,
            "batch_size": self.batch_size,
            "fused": per_tuple_knob(self.optimizer),
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
