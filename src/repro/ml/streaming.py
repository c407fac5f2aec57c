"""Streaming training: drive SGD from a data loader instead of arrays.

The PyTorch-side integration (Section 5) never materialises the dataset —
``train()`` pulls batches from the ``DataLoader`` wrapped around a
``CorgiPileDataset``.  :func:`train_streaming` is that loop as library
code: one loader pass per epoch, per-tuple or mini-batch updates, optional
evaluation sets, optional prefetching (real double buffering) — so training
from an on-disk block file needs no custom loop.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ..core.dataloader import Batch
from ..data.dataset import Dataset
from .optim import Optimizer, SGD
from .models.base import SupervisedModel
from .persistence import CheckpointState
from .schedules import ExponentialDecay
from .trainer import (
    CheckpointConfig,
    ConvergenceHistory,
    EpochRecord,
    epoch_record,
    run_epochs,
)

__all__ = ["train_streaming", "training_columns"]


def training_columns(sparse: bool, with_ids: bool = False) -> tuple[str, ...]:
    """The column projection a fused training pass actually touches."""
    cols = ("ids",) if with_ids else ()
    if sparse:
        return cols + ("labels", "indptr", "indices", "values")
    return cols + ("labels", "dense")


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
    if per_tuple:
        optimizer = None  # one update per tuple: no optimiser in the loop
    elif optimizer is None:
        optimizer = SGD(model)
    int_labels = classification_int_labels and not per_tuple and _looks_multiclass(model)

    def units(epoch: int, cursor: int, tuples_seen: int):
        loader: Iterable[Batch] = loader_factory(epoch)
        if prefetch_depth > 0:
            from ..core.prefetch import PrefetchLoader

            loader = PrefetchLoader(loader, depth=prefetch_depth)
        for index, batch in enumerate(loader):
            if index < cursor:
                continue  # applied before the interruption
            if fault_plan is not None:
                budget = fault_plan.tuples_before_crash(tuples_seen)
                if budget is not None and budget < len(batch):
                    fault_plan.fire_crash(f"epoch {epoch}, batch {index}")
            yield batch.X, batch.y.astype(np.int64) if int_labels else batch.y, None, index + 1
            tuples_seen += len(batch)

    def evaluate(epoch: int, lr: float, tuples_seen: int) -> EpochRecord:
        return epoch_record(model, train_eval, test, epoch, lr, tuples_seen)

    return run_epochs(
        model,
        optimizer,
        units,
        evaluate,
        history=ConvergenceHistory(strategy="streaming", model=type(model).__name__),
        epochs=epochs,
        schedule=schedule if schedule is not None else ExponentialDecay(0.01),
        fused=fused,
        # What pins the update sequence: checkpointed, and held equal on resume.
        knobs={
            "mode": "streaming",
            "model": type(model).__name__,
            "per_tuple": per_tuple,
            "fused": fused,
        },
        meta={"cursor_unit": "batches", "epochs": epochs},
        checkpoint=checkpoint,
        resume_from=resume_from,
    )


def _looks_multiclass(model: SupervisedModel) -> bool:
    from .models.mlp import MLPClassifier
    from .models.softmax import SoftmaxRegression

    return isinstance(model, (MLPClassifier, SoftmaxRegression))
