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

:func:`glm_step` — what ``GeneralizedLinearModel.step_block`` calls — runs the
same loops compiled (``_glm.c``, one foreign call per update unit) and falls
back to :func:`glm_epoch_dense` / :func:`glm_epoch_sparse`, which stay the
reference.  The two are **bit-identical**: the C loop calls numpy's own
``cblas_ddot`` the way numpy's ``x @ w`` does and repeats the rest of the
arithmetic in the same IEEE order.  The loop is in the package's one compiled
library (:mod:`repro._native`, built once into ``__pycache__``); it is used
only when that builds, numpy's ``ddot`` resolves, and a probe at import gives
the numpy kernels' bits.  :data:`IMPL` says which one runs (``"c"`` or
``"numpy"``).  :func:`csr_dot` — the sparse ``X @ w`` of
``GeneralizedLinearModel.decision_function`` — is compiled the same way and
gives :meth:`SparseMatrix.dot`'s bits.
"""

from __future__ import annotations

import numpy as np

from .. import _native
from .._native import F64 as _F64, I64 as _I64, addr as _addr, plain as _plain
from .._native import SOURCE as _SOURCE, build as _build  # noqa: F401  (tests find the build here)
from ..data.sparse import SparseMatrix
from .losses import HingeLoss, LogisticLoss, ScalarLoss, SquaredLoss

__all__ = [
    "IMPL",
    "csr_dot",
    "glm_step",
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
) -> float:
    """Per-tuple SGD over CSR rows in ``order``, mutating ``w`` in place.

    When no row repeats a column index (:func:`csr_rows_unique`, checked
    once) the update is a fancy-index scatter-add.  Returns the updated
    intercept.
    """
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


def glm_step(
    w: np.ndarray,
    b: np.ndarray,
    loss: ScalarLoss,
    X,
    y: np.ndarray,
    lr: float,
    l2: float,
    fit_intercept: bool,
    order: np.ndarray | None = None,
) -> None:
    """One update unit: per-tuple SGD over rows ``order`` of ``X`` (all when ``None``).

    Updates ``w`` and the one-element intercept array ``b`` in place, through
    the compiled loop when it is loaded and can address this input, else
    through :func:`glm_epoch_dense` / :func:`glm_epoch_sparse` — the same bits
    either way.
    """
    y = np.asarray(y, dtype=np.float64)
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
    if not isinstance(X, SparseMatrix):
        X = np.asarray(X, dtype=np.float64)
    code = _LOSS_CODES.get(type(loss))
    if _LIB is not None and code is not None:
        if _compiled(_LIB, w, b, code, X, y, order, lr, l2, fit_intercept):
            return
    if order is None:
        order = np.arange(y.size, dtype=np.int64)
    _numpy_step(w, b, loss, X, y, order, lr, l2, fit_intercept)


def csr_dot(X: SparseMatrix, w: np.ndarray) -> np.ndarray:
    """``X @ w`` for a CSR matrix: the compiled loop when it is loaded and can
    address the input, else :meth:`SparseMatrix.dot` — the same bits either way."""
    if _LIB is not None:
        out = _compiled_csr_dot(_LIB, X, w)
        if out is not None:
            return out
    return X.dot(w)


def _numpy_step(w, b, loss, X, y, order, lr, l2, fit_intercept) -> None:
    if isinstance(X, SparseMatrix):
        args = (X.indptr, X.indices, X.data, y, order, lr, l2, fit_intercept)
        b[0] = glm_epoch_sparse(w, float(b[0]), loss, *args)
    else:
        b[0] = glm_epoch_dense(w, float(b[0]), loss, X, y, order, lr, l2, fit_intercept)


# ----------------------------------------------------------------------
# The compiled loop (_glm.c) and the checks that gate it
# ----------------------------------------------------------------------

_LOSS_CODES = {LogisticLoss: 0, HingeLoss: 1, SquaredLoss: 2}


def _compiled(lib, w, b, code, X, y, order, lr, l2, fit_intercept) -> bool:
    """Run one unit through the compiled loop; False (nothing written) when it cannot.

    Python checks types, dtypes and layout here; the loop itself checks every
    order entry, CSR pointer and column index it will visit before it writes.
    """
    if not (
        _plain(w, _F64)
        and w.flags.writeable
        and _plain(b, _F64)
        and b.flags.writeable
        and b.size == 1
        and _plain(y, _F64)
    ):
        return False
    if order is None:
        m, order_at = y.size, None
    elif _plain(order, _I64):
        m, order_at = order.size, _addr(order)
    else:
        return False
    if isinstance(X, SparseMatrix):
        indptr, indices, values = X.indptr, X.indices, X.data
        if not (_plain(indptr, _I64) and _plain(indices, _I64) and _plain(values, _F64)):
            return False
        rc = lib.glm_epoch_sparse(
            _addr(w), w.size, _addr(b), code,
            _addr(indptr), _addr(indices), _addr(values),
            min(indptr.size - 1, y.size), min(indices.size, values.size),
            _addr(y), order_at, m, lr, l2, fit_intercept,
        )
    else:
        if not (
            type(X) is np.ndarray
            and X.dtype is _F64
            and X.ndim == 2
            and X.shape[1] == w.size
            and X.flags.aligned
        ):
            return False
        rc = lib.glm_epoch_dense(
            _addr(w), w.size, _addr(b), code,
            _addr(X), min(X.shape[0], y.size), X.strides[0], X.strides[1],
            _addr(y), order_at, m, lr, l2, fit_intercept,
        )
    return rc == 0


def _compiled_csr_dot(lib, X: SparseMatrix, w) -> np.ndarray | None:
    """``X @ w`` through the compiled loop; ``None`` when it cannot address the input."""
    indptr, indices, values = X.indptr, X.indices, X.data
    if not (
        _plain(indptr, _I64)
        and _plain(indices, _I64)
        and _plain(values, _F64)
        and _plain(w, _F64)
        and indptr.size == X.n_rows + 1
        and indices.size == values.size
    ):
        return None
    out = np.empty(X.n_rows, dtype=np.float64)
    rc = lib.glm_csr_dot(
        _addr(indptr), _addr(indices), _addr(values), X.n_rows, indices.size,
        _addr(w), w.size, _addr(out),
    )
    return out if rc == 0 else None


def _probe(lib) -> bool:
    """Does the compiled loop give the numpy kernels' bits on a fixed problem?"""
    # Deterministic without numpy.random, which nothing else imports this early.
    cells = np.arange(12 * 37.0).reshape(12, 37)
    X = np.where(cells % 3 == 0, 0.0, 2.0 * np.sin(0.7 * cells))
    y = np.where(np.sin(1.3 * np.arange(12)) > 0, 1.0, -1.0)
    order = (5 * np.arange(40)) % 12
    for loss in (LogisticLoss(), HingeLoss(), SquaredLoss()):
        for A in (X, np.asfortranarray(X), SparseMatrix.from_dense(X)):
            w, b = np.full(37, 0.01), np.zeros(1)
            if not _compiled(lib, w, b, _LOSS_CODES[type(loss)], A, y, order, 0.1, 0.3, True):
                return False
            ref_w, ref_b = np.full(37, 0.01), np.zeros(1)
            _numpy_step(ref_w, ref_b, loss, A, y, order, 0.1, 0.3, True)
            if not (np.array_equal(w, ref_w) and np.array_equal(b, ref_b)):
                return False
    A, w = SparseMatrix.from_dense(X), np.sin(np.arange(37.0))
    z = _compiled_csr_dot(lib, A, w)
    return z is not None and np.array_equal(z, A.dot(w))


_LIB = _native.LIB if _native.LIB is not None and _probe(_native.LIB) else None
#: Which per-tuple GLM loop runs: ``"c"`` (compiled) or ``"numpy"``.
IMPL = "numpy" if _LIB is None else "c"
