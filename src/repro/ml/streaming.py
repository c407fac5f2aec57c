"""Streaming training: drive SGD from a data loader instead of arrays.

The PyTorch-side integration (Section 5) never materialises the dataset —
``train()`` pulls batches from the ``DataLoader`` wrapped around a
``CorgiPileDataset``.  :func:`train_streaming` is that loop as library
code: one loader pass per epoch, per-tuple or mini-batch updates, optional
evaluation sets, optional prefetching (real double buffering) — so training
from an on-disk block file needs no custom loop.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .. import obs
from ..core.dataloader import Batch
from ..data.dataset import Dataset
from .optim import Optimizer, SGD
from .models.base import SupervisedModel
from .persistence import CheckpointState, save_checkpoint
from .schedules import ExponentialDecay
from .trainer import CheckpointConfig, ConvergenceHistory, EpochRecord, restore_run

__all__ = ["train_streaming", "train_streaming_chunks", "training_columns"]


def training_columns(sparse: bool, with_ids: bool = False) -> tuple[str, ...]:
    """The column projection a fused training pass actually touches."""
    cols = ("ids",) if with_ids else ()
    if sparse:
        return cols + ("labels", "indptr", "indices", "values")
    return cols + ("labels", "dense")


def train_streaming_chunks(
    model: SupervisedModel,
    dataset,
    *,
    epochs: int,
    schedule=None,
    columns: tuple[str, ...] | None = None,
    train_eval: Dataset | None = None,
    test: Dataset | None = None,
) -> ConvergenceHistory:
    """Fused per-tuple training straight off block chunks (no repack).

    ``dataset`` is a :class:`~repro.core.dataset.CorgiPileDataset`; each
    shuffle-buffer fill arrives as a :class:`~repro.core.dataset.ChunkFill`
    and is consumed by ``model.step_chunks`` — on a columnar file the column
    arrays are used exactly as decoded (CSR chunks straight into the fused
    kernel), and ``columns`` prunes the read to the chunks training touches
    (labels + features by default; tuple ids are never read).

    Visit order equals ``__iter__``'s for the same (seed, epoch, worker), so
    results are bit-identical to ``train_streaming(..., per_tuple=True,
    fused=True)`` over a loader with any batch size (per-tuple updates make
    batching a non-event).
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    schedule = schedule if schedule is not None else ExponentialDecay(0.01)
    if columns is None and getattr(dataset.reader, "layout", "row") == "columnar":
        columns = training_columns(dataset.reader.schema.sparse)
    history = ConvergenceHistory(strategy="streaming-chunks", model=type(model).__name__)
    tuples_seen = 0
    for epoch in range(epochs):
        dataset.set_epoch(epoch)
        lr = float(schedule(epoch))
        with obs.span("ml.epoch", epoch=epoch, lr=lr, strategy="streaming-chunks") as sp:
            for fill in dataset.iter_fills(columns=columns):
                obs.inc("ml.fused_steps")
                obs.inc("ml.fused_tuples", len(fill))
                model.step_chunks(fill.batches, fill.order, lr)
                tuples_seen += len(fill)
            sp.set(tuples_seen=tuples_seen)
        obs.inc("ml.epochs")
        history.append(
            EpochRecord(
                epoch=epoch,
                lr=lr,
                train_loss=(
                    model.loss(train_eval.X, train_eval.y)
                    if train_eval is not None
                    else float("nan")
                ),
                train_score=(
                    model.score(train_eval.X, train_eval.y)
                    if train_eval is not None
                    else float("nan")
                ),
                test_score=model.score(test.X, test.y) if test is not None else None,
                tuples_seen=tuples_seen,
            )
        )
    return history


def train_streaming(
    model: SupervisedModel,
    loader_factory: Callable[[int], Iterable[Batch]],
    *,
    epochs: int,
    schedule=None,
    optimizer: Optimizer | None = None,
    per_tuple: bool = False,
    fused: bool = False,
    train_eval: Dataset | None = None,
    test: Dataset | None = None,
    prefetch_depth: int = 0,
    classification_int_labels: bool = True,
    checkpoint: CheckpointConfig | None = None,
    resume_from: CheckpointState | str | Path | None = None,
    fault_plan=None,
) -> ConvergenceHistory:
    """Train ``model`` from ``loader_factory(epoch)`` batch streams.

    ``per_tuple=True`` applies one update per tuple inside each batch (the
    standard-SGD mode); otherwise each batch is one (mini-batch) step via
    ``optimizer`` (plain SGD by default).  ``fused=True`` routes the
    per-tuple updates through the models' ``step_block`` kernels (same
    in-batch visit order, one update per tuple).  ``prefetch_depth > 0``
    wraps the loader in a background
    :class:`~repro.core.prefetch.PrefetchLoader`.  Loss/score are evaluated
    on ``train_eval``/``test`` when given; without ``train_eval`` the loss
    column is NaN (nothing is materialised).

    With ``checkpoint``, a resumable snapshot is written at epoch ends and
    (for ``every_tuples > 0``) at batch boundaries inside the epoch; the
    cursor is the number of *batches* already consumed, so resuming requires
    ``loader_factory(epoch)`` to be deterministic per epoch (CorgiPile
    loaders are: (seed, epoch) fully pin the stream).  Updates are per-batch
    either way, so — unlike the array trainer — checkpoint cadence never
    changes the numeric result.  ``fault_plan`` (duck-typed
    ``repro.faults.FaultPlan``) injects "crash after N tuples" at the batch
    boundary where the budget runs out.
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    schedule = schedule if schedule is not None else ExponentialDecay(0.01)
    if optimizer is None and not per_tuple:
        optimizer = SGD(model)

    history = ConvergenceHistory(strategy="streaming", model=type(model).__name__)
    tuples_seen = 0
    start_epoch = 0
    start_batch = 0
    # What pins the update sequence: checkpointed, and held equal on resume.
    knobs = {
        "mode": "streaming",
        "model": type(model).__name__,
        "per_tuple": per_tuple,
        "fused": fused,
    }
    if resume_from is not None:
        state = restore_run(resume_from, model, optimizer, history, knobs)
        start_epoch, start_batch = state.epoch, state.cursor
        tuples_seen = state.tuples_seen

    def _save(epoch: int, batches_done: int) -> None:
        if checkpoint is None:
            return
        save_checkpoint(
            checkpoint.path,
            model,
            epoch=epoch,
            cursor=batches_done,
            tuples_seen=tuples_seen,
            optimizer_state=optimizer.state_dict() if optimizer is not None else {},
            history=[asdict(r) for r in history.records],
            meta={**knobs, "cursor_unit": "batches", "epochs": epochs},
        )

    _save(start_epoch, start_batch)
    for epoch in range(start_epoch, epochs):
        lr = float(schedule(epoch))
        loader: Iterable[Batch] = loader_factory(epoch)
        if prefetch_depth > 0:
            from ..core.prefetch import PrefetchLoader

            loader = PrefetchLoader(loader, depth=prefetch_depth)
        skip = start_batch if epoch == start_epoch else 0
        batches_done = skip
        since_checkpoint = 0
        with obs.span("ml.epoch", epoch=epoch, lr=lr, strategy="streaming") as sp:
            for batch_index, batch in enumerate(loader):
                if batch_index < skip:
                    continue
                if fault_plan is not None:
                    budget = fault_plan.tuples_before_crash(tuples_seen)
                    if budget is not None and budget < len(batch):
                        fault_plan.fire_crash(f"epoch {epoch}, batch {batch_index}")
                y = batch.y
                if (
                    classification_int_labels
                    and not per_tuple
                    and _looks_multiclass(model)
                ):
                    y = y.astype(np.int64)
                if per_tuple:
                    if fused:
                        obs.inc("ml.fused_steps")
                        obs.inc("ml.fused_tuples", len(batch))
                        model.step_block(batch.X, batch.y, lr)
                    else:
                        from ..data.sparse import SparseMatrix

                        labels = np.asarray(batch.y, dtype=np.float64).tolist()
                        if isinstance(batch.X, SparseMatrix):
                            for i in range(len(batch)):
                                model.step_example(batch.X.row(i), labels[i], lr)
                        else:
                            for i in range(len(batch)):
                                model.step_example(batch.X[i], labels[i], lr)
                else:
                    grads = model.gradient(batch.X, y)
                    optimizer.step(grads, lr)
                tuples_seen += len(batch)
                batches_done += 1
                since_checkpoint += len(batch)
                if (
                    checkpoint is not None
                    and checkpoint.every_tuples > 0
                    and since_checkpoint >= checkpoint.every_tuples
                ):
                    _save(epoch, batches_done)
                    since_checkpoint = 0
            sp.set(tuples_seen=tuples_seen, batches=batches_done)
        obs.inc("ml.epochs")
        history.append(
            EpochRecord(
                epoch=epoch,
                lr=lr,
                train_loss=(
                    model.loss(train_eval.X, train_eval.y)
                    if train_eval is not None
                    else float("nan")
                ),
                train_score=(
                    model.score(train_eval.X, train_eval.y)
                    if train_eval is not None
                    else float("nan")
                ),
                test_score=model.score(test.X, test.y) if test is not None else None,
                tuples_seen=tuples_seen,
            )
        )
        _save(epoch + 1, 0)
    return history


def _looks_multiclass(model: SupervisedModel) -> bool:
    from .models.mlp import MLPClassifier
    from .models.softmax import SoftmaxRegression

    return isinstance(model, (MLPClassifier, SoftmaxRegression))
