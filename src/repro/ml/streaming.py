"""Streaming training: drive SGD from a data loader instead of arrays.

The PyTorch-side integration (Section 5) never materialises the dataset —
``train()`` pulls batches from the ``DataLoader`` wrapped around a
``CorgiPileDataset``.  :func:`train_streaming` is that loop as library
code over any stream of :class:`~repro.storage.codec.TupleBatch`\\ es (a
``DataLoader``, a ``MultiWorkerLoader``, ``fills()`` itself, or any of them
wrapped in a :class:`~repro.core.prefetch.PrefetchLoader` for real double
buffering): one pass per epoch, per-tuple or mini-batch updates, optional
evaluation sets — so training from an on-disk block file needs no custom
loop.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..data.dataset import Dataset
from ..storage.codec import TupleBatch
from .optim import Optimizer, SGD
from .models.base import SupervisedModel
from .schedules import ExponentialDecay
from .trainer import (
    CheckpointConfig,
    ConvergenceHistory,
    EpochRecord,
    apply_unit,
    epoch_record,
    per_tuple_knob,
    resume_state,
    run_epochs,
)

__all__ = ["train_streaming"]


def train_streaming(
    model: SupervisedModel,
    loader_factory: Callable[[int], Iterable[TupleBatch]],
    *,
    epochs: int,
    schedule=None,
    optimizer: Optimizer | None = None,
    per_tuple: bool = False,
    train_eval: Dataset | None = None,
    test: Dataset | None = None,
    checkpoint: CheckpointConfig | None = None,
) -> ConvergenceHistory:
    """Train ``model`` from ``loader_factory(epoch)`` batch streams.

    ``per_tuple=True`` applies one update per tuple inside each batch (the
    standard-SGD mode, through the model's ``step_block`` kernel in batch
    order); otherwise each batch is one (mini-batch) step via
    ``optimizer`` (plain SGD by default).  Loss/score are evaluated
    on ``train_eval``/``test`` when given; without ``train_eval`` the loss
    column is NaN (nothing is materialised).

    With ``checkpoint``, a resumable snapshot is written at epoch ends and
    (for ``every_tuples > 0``) at batch boundaries inside the epoch, and a
    run whose checkpoint file exists resumes from it; the cursor is the
    number of *batches* already consumed, so resuming requires
    ``loader_factory(epoch)`` to be deterministic per epoch (CorgiPile
    loaders are: (seed, epoch) fully pin the stream).  Updates are per-batch
    either way, so — unlike the array trainer — checkpoint cadence never
    changes the numeric result.
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    if per_tuple:
        optimizer = None  # one update per tuple: no optimiser in the loop
    elif optimizer is None:
        optimizer = SGD(model)
    int_labels = not per_tuple and _looks_multiclass(model)

    def units(epoch: int, lr: float, cursor: int, tuples_seen: int):
        for index, batch in enumerate(loader_factory(epoch)):
            if index < cursor:
                continue  # applied before the interruption
            y = batch.labels.astype(np.int64) if int_labels else batch.labels
            apply_unit(model, optimizer, batch.features_matrix(), y, lr)
            yield len(batch), index + 1

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
        # What pins the update sequence: checkpointed, and held equal on resume.
        knobs={
            "mode": "streaming",
            "model": type(model).__name__,
            "per_tuple": per_tuple,
            "fused": per_tuple_knob(optimizer),
        },
        meta={"cursor_unit": "batches", "epochs": epochs},
        checkpoint=checkpoint,
        resume=resume_state(checkpoint),
    )


def _looks_multiclass(model: SupervisedModel) -> bool:
    from .models.mlp import MLPClassifier
    from .models.softmax import SoftmaxRegression

    return isinstance(model, (MLPClassifier, SoftmaxRegression))
