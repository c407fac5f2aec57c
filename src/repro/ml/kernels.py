"""Fused per-tuple SGD kernels for generalized linear models.

The paper's standard-SGD mode updates the model once per tuple, so the visit
order — the thing CorgiPile's two-level shuffle controls — is part of the
semantics and cannot be batched away.  What *can* be removed is everything
the interpreter does around the two O(d)/O(nnz) vector operations each step
actually needs:

* per-tuple method dispatch, ``isinstance`` checks, and ``float()`` boxing;
* numpy *scalar* loss derivatives (4-6 temporary arrays per tuple) — replaced
  by the losses' pure-Python :meth:`~repro.ml.losses.ScalarLoss.dloss_dz_scalar`;
* the eager O(d) L2 decay ``w *= (1 - lr*l2)`` per tuple — replaced by the
  lazy weight-scaling trick: the true weights are ``s · v`` for a scalar
  ``s``, decay multiplies ``s``, and gradient writes divide by ``s``, so a
  sparse update costs O(nnz) instead of O(d);
* ``np.add.at`` scatter-adds — replaced by direct fancy-index ``+=`` when the
  CSR rows are duplicate-free (checked once per matrix, not per tuple).

The kernels perform *exactly* one update per tuple in the given order, so
they are semantically equivalent to the ``step_example`` reference loop;
``tests/test_kernels.py`` enforces agreement to 1e-9 (the only divergence is
floating-point rounding from the lazy scaling).
"""

from __future__ import annotations

import numpy as np

from .losses import ScalarLoss

__all__ = [
    "glm_epoch_dense",
    "glm_epoch_sparse",
    "csr_rows_unique",
]

# Re-materialise the lazily scaled weights before the scale underflows.
_MIN_SCALE = 1e-130


def glm_epoch_dense(
    w: np.ndarray,
    b: float,
    loss: ScalarLoss,
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    lr: float,
    l2: float,
    fit_intercept: bool,
) -> float:
    """Per-tuple SGD over rows ``X[order]``, mutating ``w`` in place.

    Returns the updated intercept.  Semantically identical to calling
    ``step_example`` on ``(X[i], y[i], lr)`` for each ``i`` in ``order``.
    """
    decay = 1.0 - lr * l2
    s = 1.0
    dldz = loss.dloss_dz_scalar
    labels = y.tolist()
    for i in order.tolist():
        x = X[i]
        z = s * float(x @ w) + b
        coef = dldz(z, labels[i])
        if l2:
            s *= decay
            if -_MIN_SCALE < s < _MIN_SCALE:
                w *= s
                s = 1.0
        if coef != 0.0:
            w -= ((lr * coef) / s) * x
            if fit_intercept:
                b -= lr * coef
    if s != 1.0:
        w *= s
    return b


def glm_epoch_sparse(
    w: np.ndarray,
    b: float,
    loss: ScalarLoss,
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    lr: float,
    l2: float,
    fit_intercept: bool,
    unique_indices: bool | None = None,
) -> float:
    """Per-tuple SGD over CSR rows in ``order``, mutating ``w`` in place.

    ``unique_indices`` asserts that no row repeats a column index (enabling
    the fancy-index scatter-add); when ``None`` it is detected once via
    :func:`csr_rows_unique`.  Returns the updated intercept.
    """
    if unique_indices is None:
        unique_indices = csr_rows_unique(indptr, indices)
    decay = 1.0 - lr * l2
    s = 1.0
    dldz = loss.dloss_dz_scalar
    labels = y.tolist()
    bounds = indptr.tolist()
    for i in order.tolist():
        lo = bounds[i]
        hi = bounds[i + 1]
        idx = indices[lo:hi]
        vals = values[lo:hi]
        z = s * float(vals @ w[idx]) + b
        coef = dldz(z, labels[i])
        if l2:
            s *= decay
            if -_MIN_SCALE < s < _MIN_SCALE:
                w *= s
                s = 1.0
        if coef != 0.0:
            scale = -(lr * coef) / s
            if unique_indices:
                w[idx] += scale * vals
            else:
                np.add.at(w, idx, scale * vals)
            if fit_intercept:
                b -= lr * coef
    if s != 1.0:
        w *= s
    return b


def csr_rows_unique(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """True when every CSR row's indices are strictly increasing.

    Strictly sorted rows (how every constructor in this repo lays them out)
    are trivially duplicate-free; anything else conservatively reports
    ``False`` so callers keep the duplicate-safe ``np.add.at`` path.
    """
    if indices.size <= 1:
        return True
    diffs = np.diff(indices)
    mask = np.ones(diffs.size, dtype=bool)
    boundaries = np.asarray(indptr[1:-1], dtype=np.int64) - 1
    boundaries = boundaries[(boundaries >= 0) & (boundaries < diffs.size)]
    mask[boundaries] = False
    return bool(np.all(diffs[mask] > 0))
