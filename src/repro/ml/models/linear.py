"""Generalized linear models: logistic regression, linear SVM, linear regression.

These are the paper's in-DB workloads (Sections 7.3-7.4).  All three share
one implementation parameterised by a :class:`~repro.ml.losses.ScalarLoss`
over the raw score ``z = w·x + b``, handle dense and sparse features, and
provide a specialised per-tuple :meth:`step_example` so the standard-SGD
loop stays cheap (a dot product and a scaled axpy per tuple, plus a sparse
scatter-add for criteo-style rows).
"""

from __future__ import annotations

import numpy as np

from ...data.dataset import FeatureMatrix
from ...data.sparse import SparseMatrix, SparseRow
from ..kernels import glm_epoch_dense, glm_epoch_sparse
from ..losses import HingeLoss, LogisticLoss, ScalarLoss, SquaredLoss
from .base import Params, SupervisedModel

__all__ = ["GeneralizedLinearModel", "LogisticRegression", "LinearSVM", "LinearRegression"]


class GeneralizedLinearModel(SupervisedModel):
    """A linear score model ``z = w·x + b`` trained under a scalar loss."""

    def __init__(
        self,
        n_features: int,
        loss: ScalarLoss,
        l2: float = 0.0,
        fit_intercept: bool = True,
        seed: int = 0,
        init_scale: float = 0.0,
    ):
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.n_features = int(n_features)
        self.loss_fn = loss
        self.l2 = float(l2)
        self.fit_intercept = bool(fit_intercept)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(n_features) * init_scale if init_scale else np.zeros(n_features)
        self._params: Params = {"w": w, "b": np.zeros(1)}

    # ------------------------------------------------------------------
    @property
    def params(self) -> Params:
        return self._params

    @property
    def w(self) -> np.ndarray:
        return self._params["w"]

    @property
    def b(self) -> float:
        return float(self._params["b"][0])

    # ------------------------------------------------------------------
    def decision_function(self, X: FeatureMatrix) -> np.ndarray:
        if isinstance(X, SparseMatrix):
            z = X.dot(self.w)
        else:
            z = np.asarray(X, dtype=np.float64) @ self.w
        if self.fit_intercept:
            z = z + self.b
        return z

    def loss(self, X: FeatureMatrix, y: np.ndarray) -> float:
        z = self.decision_function(X)
        base = self.loss_fn.mean_value(z, y)
        if self.l2:
            base += 0.5 * self.l2 * float(self.w @ self.w)
        return base

    def gradient(self, X: FeatureMatrix, y: np.ndarray) -> Params:
        z = self.decision_function(X)
        coef = self.loss_fn.dloss_dz(z, np.asarray(y, dtype=np.float64))
        n = len(coef)
        if isinstance(X, SparseMatrix):
            gw = X.t_dot(coef) / n
        else:
            gw = np.asarray(X).T @ coef / n
        if self.l2:
            gw = gw + self.l2 * self.w
        gb = np.array([coef.mean() if self.fit_intercept else 0.0])
        return {"w": gw, "b": gb}

    # ------------------------------------------------------------------
    def step_example(self, features: np.ndarray | SparseRow, label: float, lr: float) -> None:
        w = self._params["w"]
        if isinstance(features, SparseRow):
            z = features.dot(w)
            if self.fit_intercept:
                z += self.b
            coef = float(self.loss_fn.dloss_dz(z, label))
            if self.l2:
                w *= 1.0 - lr * self.l2
            if coef != 0.0:
                features.add_into(w, -lr * coef)
        else:
            x = features
            z = float(x @ w)
            if self.fit_intercept:
                z += self.b
            coef = float(self.loss_fn.dloss_dz(z, label))
            if self.l2:
                w *= 1.0 - lr * self.l2
            if coef != 0.0:
                w -= (lr * coef) * x
        if self.fit_intercept and coef != 0.0:
            self._params["b"][0] -= lr * coef

    def step_block(
        self,
        X: FeatureMatrix,
        y: np.ndarray,
        lr: float,
        order: np.ndarray | None = None,
    ) -> None:
        """Fused per-tuple SGD over ``X`` rows in visit order.

        Same update-per-tuple semantics as repeated :meth:`step_example`
        (enforced to 1e-9 by test), executed by the vectorized kernels in
        :mod:`repro.ml.kernels` (lazy-L2 scaling, scalar loss derivatives,
        duplicate-free scatter-add fast path).
        """
        y = np.asarray(y, dtype=np.float64)
        order = (
            np.arange(y.size, dtype=np.int64)
            if order is None
            else np.asarray(order, dtype=np.int64)
        )
        w = self._params["w"]
        b = float(self._params["b"][0])
        if isinstance(X, SparseMatrix):
            b = glm_epoch_sparse(
                w,
                b,
                self.loss_fn,
                X.indptr,
                X.indices,
                X.data,
                y,
                order,
                lr,
                self.l2,
                self.fit_intercept,
            )
        else:
            b = glm_epoch_dense(
                w,
                b,
                self.loss_fn,
                np.asarray(X, dtype=np.float64),
                y,
                order,
                lr,
                self.l2,
                self.fit_intercept,
            )
        self._params["b"][0] = b


class LogisticRegression(GeneralizedLinearModel):
    """Binary logistic regression over {-1, +1} labels."""

    def __init__(self, n_features: int, l2: float = 0.0, **kwargs):
        super().__init__(n_features, LogisticLoss(), l2=l2, **kwargs)

    def predict(self, X: FeatureMatrix) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0.0, 1.0, -1.0)

    def score(self, X: FeatureMatrix, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))


class LinearSVM(GeneralizedLinearModel):
    """Linear SVM (hinge loss) over {-1, +1} labels."""

    def __init__(self, n_features: int, l2: float = 1e-4, **kwargs):
        super().__init__(n_features, HingeLoss(), l2=l2, **kwargs)

    def predict(self, X: FeatureMatrix) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0.0, 1.0, -1.0)

    def score(self, X: FeatureMatrix, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))


class LinearRegression(GeneralizedLinearModel):
    """Least-squares linear regression; score is the R² coefficient."""

    def __init__(self, n_features: int, l2: float = 0.0, **kwargs):
        super().__init__(n_features, SquaredLoss(), l2=l2, **kwargs)

    def predict(self, X: FeatureMatrix) -> np.ndarray:
        return self.decision_function(X)

    def score(self, X: FeatureMatrix, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=np.float64)
        residual = y - self.predict(X)
        ss_res = float(residual @ residual)
        centred = y - y.mean()
        ss_tot = float(centred @ centred)
        if ss_tot == 0.0:
            return 0.0 if ss_res > 0 else 1.0
        return 1.0 - ss_res / ss_tot
