"""Fused ``step_block`` kernels: equivalence with the per-tuple reference path.

The fused kernels must preserve per-tuple standard-SGD semantics exactly —
same visit order, one update per tuple — so every test here compares the
fused path against the ``step_example`` reference loop (reachable as the
unbound ``SupervisedModel.step_block``) and asserts the parameters agree to
1e-9 or better.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_binary_dense, make_binary_sparse
from repro.data.sparse import SparseMatrix, SparseRow
from repro.db import MiniDB, TrainQuery
from repro.ml import (
    ExponentialDecay,
    LinearRegression,
    LinearSVM,
    LogisticRegression,
    Trainer,
    csr_rows_unique,
)
from repro.ml.losses import HingeLoss, LogisticLoss, SquaredLoss
from repro.ml.models.base import SupervisedModel
from repro.ml.streaming import train_streaming
from repro.ml.trainer import fixed_order_source
from repro.core.dataloader import Batch

# LinearRegression diverges at lr=0.05 on d=64 standard-normal rows, which
# exponentially amplifies rounding noise; use a stable rate for it.
_MODEL_CASES = [
    (LogisticRegression, 0.05),
    (LinearSVM, 0.05),
    (LinearRegression, 0.01),
]


def _dense_problem(n=200, d=64, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return X, y


def _sparse_problem(n=200, d=500, nnz=10, seed=0):
    rng = np.random.default_rng(seed)
    rows = [
        SparseRow(
            np.sort(rng.choice(d, size=nnz, replace=False)),
            rng.standard_normal(nnz),
            d,
        )
        for _ in range(n)
    ]
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return SparseMatrix.from_rows(rows, d), y


def _run_pair(model_cls, X, y, lr, *, l2, fit_intercept, epochs=3, seed=0):
    d = X.shape[1]
    ref = model_cls(d, l2=l2, fit_intercept=fit_intercept)
    fused = model_cls(d, l2=l2, fit_intercept=fit_intercept)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(y))
        # Unbound call = the hoisted per-tuple step_example reference loop.
        SupervisedModel.step_block(ref, X, y, lr, order=order)
        fused.step_block(X, y, lr, order=order)
    return ref, fused


class TestFusedEquivalence:
    @pytest.mark.parametrize("model_cls,lr", _MODEL_CASES)
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_dense(self, model_cls, lr, l2, fit_intercept):
        X, y = _dense_problem()
        ref, fused = _run_pair(model_cls, X, y, lr, l2=l2, fit_intercept=fit_intercept)
        np.testing.assert_allclose(fused.w, ref.w, rtol=0, atol=1e-9)
        assert abs(fused.b - ref.b) <= 1e-9

    @pytest.mark.parametrize("model_cls,lr", _MODEL_CASES)
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_sparse(self, model_cls, lr, l2, fit_intercept):
        X, y = _sparse_problem()
        ref, fused = _run_pair(model_cls, X, y, lr, l2=l2, fit_intercept=fit_intercept)
        np.testing.assert_allclose(fused.w, ref.w, rtol=0, atol=1e-9)
        assert abs(fused.b - ref.b) <= 1e-9

    def test_default_order_is_sequential(self):
        X, y = _dense_problem(n=50, d=8)
        ref = LogisticRegression(8)
        fused = LogisticRegression(8)
        SupervisedModel.step_block(ref, X, y, 0.05, order=np.arange(50))
        fused.step_block(X, y, 0.05)  # order=None means 0..n-1
        np.testing.assert_allclose(fused.w, ref.w, rtol=0, atol=1e-9)

    def test_no_l2_dense_is_tight(self):
        # Without l2 there is no lazy-scaling rescale at all; the only
        # remaining divergence is ulp-level (math.exp vs np.exp in the loss).
        X, y = _dense_problem(n=100, d=16)
        ref, fused = _run_pair(LogisticRegression, X, y, 0.05, l2=0.0, fit_intercept=True)
        np.testing.assert_allclose(fused.w, ref.w, rtol=0, atol=1e-12)


class TestFusedPipelines:
    def test_trainer_fused_matches_scalar(self):
        data = make_binary_dense(300, 10, separation=1.0, seed=5)
        orders = [np.random.default_rng(7 + e).permutation(data.n_tuples) for e in range(3)]

        def run(fused):
            model = LogisticRegression(data.n_features, l2=1e-3)
            Trainer(
                model,
                data,
                fixed_order_source("fixed", orders),
                epochs=3,
                schedule=ExponentialDecay(0.05),
                fused=fused,
            ).run()
            return model

        scalar, fused = run(False), run(True)
        np.testing.assert_allclose(fused.w, scalar.w, rtol=0, atol=1e-9)
        assert abs(fused.b - scalar.b) <= 1e-9

    def test_trainer_fused_sparse(self):
        data = make_binary_sparse(200, 80, nnz_per_row=8, separation=1.0, seed=3)
        orders = [np.random.default_rng(11).permutation(data.n_tuples)]

        def run(fused):
            model = LinearSVM(data.n_features)
            Trainer(
                model,
                data,
                fixed_order_source("fixed", orders),
                epochs=2,
                schedule=ExponentialDecay(0.05),
                fused=fused,
            ).run()
            return model

        scalar, fused = run(False), run(True)
        np.testing.assert_allclose(fused.w, scalar.w, rtol=0, atol=1e-9)

    def test_streaming_fused_matches_scalar(self):
        data = make_binary_dense(256, 6, separation=1.0, seed=2)

        def loader(_epoch):
            for lo in range(0, data.n_tuples, 64):
                hi = min(lo + 64, data.n_tuples)
                yield Batch(data.X[lo:hi], data.y[lo:hi], np.arange(lo, hi))

        def run(fused):
            model = LogisticRegression(data.n_features, l2=1e-3)
            train_streaming(
                model,
                loader,
                epochs=2,
                schedule=ExponentialDecay(0.05),
                per_tuple=True,
                fused=fused,
            )
            return model

        scalar, fused = run(False), run(True)
        np.testing.assert_allclose(fused.w, scalar.w, rtol=0, atol=1e-9)

    def test_db_operator_fused_matches_scalar(self):
        data = make_binary_dense(200, 8, separation=1.2, seed=9)

        def run(fused):
            db = MiniDB(page_bytes=1024)
            db.create_table("t", data)
            query = TrainQuery(
                table="t",
                model="lr",
                strategy="corgipile",
                max_epoch_num=2,
                block_size=2048,
                seed=0,
                fused=fused,
            )
            return db.train(query).model

        scalar, fused = run(False), run(True)
        np.testing.assert_allclose(fused.w, scalar.w, rtol=0, atol=1e-9)
        assert abs(fused.b - scalar.b) <= 1e-9


class TestScalarLossDerivative:
    @pytest.mark.parametrize("loss", [LogisticLoss(), HingeLoss(), SquaredLoss()])
    def test_matches_array_path(self, loss):
        for z in (-600.0, -5.0, -1.0, -1e-12, 0.0, 0.3, 1.0, 4.0, 600.0):
            for y in (-1.0, 1.0, 0.5):
                expected = float(loss.dloss_dz(np.float64(z), np.float64(y)))
                assert loss.dloss_dz_scalar(z, y) == pytest.approx(expected, abs=1e-12)


class TestSparseRowScatter:
    def test_unique_indices_fast_path(self):
        row = SparseRow([1, 4, 7], [1.0, 2.0, 3.0], 10)
        assert row.has_unique_indices
        out = np.zeros(10)
        row.add_into(out, scale=2.0)
        np.testing.assert_array_equal(out[[1, 4, 7]], [2.0, 4.0, 6.0])

    def test_duplicate_indices_fall_back_to_accumulation(self):
        row = SparseRow([3, 3, 5], [1.0, 2.0, 4.0], 10)
        assert not row.has_unique_indices
        out = np.zeros(10)
        row.add_into(out, 1.0)
        # np.add.at semantics: duplicates accumulate.
        assert out[3] == 3.0 and out[5] == 4.0

    def test_csr_rows_unique(self):
        unique = SparseMatrix.from_rows(
            [SparseRow([0, 2], [1.0, 1.0], 4), SparseRow([1, 3], [1.0, 1.0], 4)], 4
        )
        assert csr_rows_unique(unique.indptr, unique.indices)
        # Descending within a row -> not strictly increasing -> not provably unique.
        dup = SparseMatrix(
            np.array([0, 2, 4]),
            np.array([2, 2, 1, 3]),
            np.array([1.0, 1.0, 1.0, 1.0]),
            (2, 4),
        )
        assert not csr_rows_unique(dup.indptr, dup.indices)
        # Row boundaries may legitimately "decrease" across rows.
        boundary = SparseMatrix(
            np.array([0, 2, 4]),
            np.array([2, 3, 0, 1]),
            np.array([1.0, 1.0, 1.0, 1.0]),
            (2, 4),
        )
        assert csr_rows_unique(boundary.indptr, boundary.indices)
