"""Model interface shared by the GLMs and the MLP.

Models hold their parameters as a flat ``dict[str, np.ndarray]`` so generic
optimisers (mini-batch SGD, Adam) can update any model uniformly.  GLMs
additionally expose a fast in-place :meth:`SupervisedModel.step_example`
path used by the per-tuple standard-SGD loop (the dominant mode of the
paper's in-DB experiments).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ...data.dataset import FeatureMatrix
from ...data.sparse import SparseRow

__all__ = ["SupervisedModel", "Params"]

Params = dict[str, np.ndarray]


class SupervisedModel(ABC):
    """A trainable model with dict-of-arrays parameters."""

    @property
    @abstractmethod
    def params(self) -> Params:
        """The live parameter arrays (mutating them mutates the model)."""

    @abstractmethod
    def loss(self, X: FeatureMatrix, y: np.ndarray) -> float:
        """Mean loss over a batch."""

    @abstractmethod
    def gradient(self, X: FeatureMatrix, y: np.ndarray) -> Params:
        """Mean gradient over a batch, keyed like :attr:`params`."""

    @abstractmethod
    def predict(self, X: FeatureMatrix) -> np.ndarray:
        """Task-level predictions (labels or regression values)."""

    @abstractmethod
    def score(self, X: FeatureMatrix, y: np.ndarray) -> float:
        """The task metric: accuracy for classifiers, R² for regression."""

    def step_example(
        self, features: np.ndarray | SparseRow, label: float, lr: float
    ) -> None:
        """One in-place SGD step on a single example (fast path).

        The default routes through :meth:`gradient`; GLMs override this with
        a specialised update to keep the per-tuple loop cheap.
        """
        X, y = _as_batch(features, label)
        grads = self.gradient(X, y)
        for key, grad in grads.items():
            self.params[key] -= lr * grad

    def step_block(
        self,
        X: FeatureMatrix,
        y: np.ndarray,
        lr: float,
        order: np.ndarray | None = None,
    ) -> None:
        """Per-tuple SGD over the rows of ``X`` in visit order.

        One model update per tuple, visiting rows in ``order`` (sequential
        when omitted) — semantically identical to calling
        :meth:`step_example` per row.  This default *is* that reference
        loop (with the per-tuple boxing hoisted); GLMs override it with the
        fused kernels in :mod:`repro.ml.kernels`.
        """
        from ...data.sparse import SparseMatrix

        y = np.asarray(y, dtype=np.float64)
        positions = (
            range(y.size) if order is None else np.asarray(order, dtype=np.int64).tolist()
        )
        labels = y.tolist()
        if isinstance(X, SparseMatrix):
            row = X.row
            for i in positions:
                self.step_example(row(i), labels[i], lr)
        else:
            X = np.asarray(X, dtype=np.float64)
            for i in positions:
                self.step_example(X[i], labels[i], lr)

    def apply_gradient(self, grads: Params, lr: float) -> None:
        for key, grad in grads.items():
            self.params[key] -= lr * grad

    def parameter_vector(self) -> np.ndarray:
        """All parameters flattened into one vector (for theory evaluations)."""
        return np.concatenate([p.ravel() for p in self.params.values()])

    def load_parameter_vector(self, vector: np.ndarray) -> None:
        """Inverse of :meth:`parameter_vector`: load a flat vector in place.

        The multi-process engine moves parameters between the coordinator
        and workers as flat shared-memory vectors; this scatters one back
        into the live arrays (same key order as :meth:`parameter_vector`).
        """
        vector = np.asarray(vector, dtype=np.float64).ravel()
        expected = sum(p.size for p in self.params.values())
        if vector.size != expected:
            raise ValueError(
                f"parameter vector has {vector.size} entries, model needs {expected}"
            )
        offset = 0
        for param in self.params.values():
            param[...] = vector[offset : offset + param.size].reshape(param.shape)
            offset += param.size


def _as_batch(features: np.ndarray | SparseRow, label: float):
    from ...data.sparse import SparseMatrix

    if isinstance(features, SparseRow):
        X = SparseMatrix.from_rows([features], features.n_features)
    else:
        X = np.asarray(features, dtype=np.float64).reshape(1, -1)
    return X, np.array([label], dtype=np.float64)
