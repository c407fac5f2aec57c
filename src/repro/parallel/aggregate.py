"""Aggregation layer: how per-worker work folds into one global model.

Two modes, in decreasing synchrony; both are deterministic:

* ``sync`` — per-batch gradient averaging.  Each worker computes the mean
  gradient of its ``bs/PN`` slice; the coordinator averages the ``PN``
  slice means and takes one optimiser step.  Because the slices have equal
  size, the average of slice means *is* the mean over the full global
  batch, so a sync run is numerically a single-process mini-batch run over
  the interleaved stream — the executable form of Section 5.2's
  equivalence claim (deterministic, and what the CI smoke asserts at 1e-6).
* ``epoch`` — epoch-end model averaging.  Workers run per-tuple SGD over
  their whole shard locally and the coordinator takes a tuple-count-
  weighted average of the resulting models (weights handle uneven and
  empty shards).  One sync per epoch, but a different — local-SGD /
  FedAvg-style — update sequence.

The helpers here are the pure-numpy kernel of those modes; the process
choreography lives in :mod:`repro.parallel.engine`/``worker``.
"""

from __future__ import annotations

import numpy as np

from ..ml.models.base import Params, SupervisedModel

__all__ = [
    "AGGREGATION_MODES",
    "pack_gradients",
    "unpack_gradients",
    "average_gradient_slots",
    "weighted_average_models",
]

#: Also defined (for spec validation) in ``repro.db.spec``, which says why
#: neither imports the other; ``tests/test_spec.py`` holds the two equal.
AGGREGATION_MODES = ("sync", "epoch")


def pack_gradients(grads: Params, model: SupervisedModel) -> np.ndarray:
    """Flatten a gradient dict in the model's parameter order."""
    return np.concatenate(
        [np.asarray(grads[key], dtype=np.float64).ravel() for key in model.params]
    )


def unpack_gradients(vector: np.ndarray, model: SupervisedModel) -> Params:
    """Inverse of :func:`pack_gradients` (shapes taken from the model)."""
    vector = np.asarray(vector, dtype=np.float64).ravel()
    grads: Params = {}
    offset = 0
    for key, param in model.params.items():
        grads[key] = vector[offset : offset + param.size].reshape(param.shape)
        offset += param.size
    if offset != vector.size:
        raise ValueError(f"gradient vector has {vector.size} entries, model needs {offset}")
    return grads


def average_gradient_slots(slots: np.ndarray, n_active: int | None = None) -> np.ndarray:
    """Mean over the first ``n_active`` per-worker gradient rows.

    With equal slice sizes this equals the full-global-batch mean gradient
    (mean of means over equal-sized groups) — the sync-mode identity.
    """
    slots = np.asarray(slots, dtype=np.float64)
    if slots.ndim != 2 or slots.shape[0] == 0:
        raise ValueError("slots must be a non-empty (n_workers, dim) slab")
    n = slots.shape[0] if n_active is None else int(n_active)
    if not 1 <= n <= slots.shape[0]:
        raise ValueError(f"n_active {n} out of range [1, {slots.shape[0]}]")
    return slots[:n].mean(axis=0)


def weighted_average_models(
    vectors: list[np.ndarray], weights: list[int | float]
) -> np.ndarray:
    """Tuple-count-weighted model average (epoch mode).

    Zero-weight entries (workers whose shard was empty this epoch, e.g.
    ``n_blocks < n_workers``) are skipped — an untrained copy must not drag
    the average toward the epoch-start point.
    """
    if len(vectors) != len(weights) or not vectors:
        raise ValueError("need equally many vectors and weights, at least one each")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    acc = np.zeros_like(np.asarray(vectors[0], dtype=np.float64))
    for vec, weight in zip(vectors, weights):
        if weight > 0:
            acc += (float(weight) / total) * np.asarray(vec, dtype=np.float64)
    return acc
