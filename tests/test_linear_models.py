"""Tests for the generalized linear models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_binary_dense, make_binary_sparse, make_multiclass_dense, make_regression
from repro.data.sparse import SparseMatrix
from repro.ml import (
    LinearRegression,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    SoftmaxRegression,
)


def numeric_gradient(model, X, y, eps=1e-6):
    grads = {}
    for key, param in model.params.items():
        grad = np.zeros_like(param)
        flat = param.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = model.loss(X, y)
            flat[i] = orig - eps
            down = model.loss(X, y)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        grads[key] = grad
    return grads


class TestGradients:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LogisticRegression(5),
            lambda: LinearSVM(5, l2=0.01),
            lambda: LinearRegression(5, l2=0.001),
        ],
    )
    def test_analytic_matches_numeric(self, factory):
        rng = np.random.default_rng(0)
        model = factory()
        model.params["w"][:] = rng.standard_normal(5) * 0.5
        model.params["b"][:] = 0.3
        X = rng.standard_normal((12, 5))
        if isinstance(model, LinearRegression):
            y = rng.standard_normal(12)
        else:
            y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        analytic = model.gradient(X, y)
        numeric = numeric_gradient(model, X, y)
        for key in analytic:
            np.testing.assert_allclose(analytic[key], numeric[key], atol=1e-4)

    def test_sparse_gradient_matches_dense(self, sparse_binary):
        dense_X = sparse_binary.X.to_dense()
        m1 = LogisticRegression(sparse_binary.n_features)
        m2 = LogisticRegression(sparse_binary.n_features)
        g_sparse = m1.gradient(sparse_binary.X, sparse_binary.y)
        g_dense = m2.gradient(dense_X, sparse_binary.y)
        np.testing.assert_allclose(g_sparse["w"], g_dense["w"], atol=1e-10)
        np.testing.assert_allclose(g_sparse["b"], g_dense["b"], atol=1e-10)


class TestStepExample:
    def test_dense_step_equals_gradient_step(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        y = 1.0
        a = LogisticRegression(6)
        b = LogisticRegression(6)
        a.step_example(x, y, lr=0.1)
        grads = b.gradient(x.reshape(1, -1), np.array([y]))
        b.apply_gradient(grads, 0.1)
        np.testing.assert_allclose(a.w, b.w, atol=1e-12)
        np.testing.assert_allclose(a.b, b.b, atol=1e-12)

    def test_sparse_step_equals_dense_step(self, sparse_binary):
        row = sparse_binary.X.row(3)
        y = float(sparse_binary.y[3])
        a = LinearSVM(sparse_binary.n_features, l2=0.0)
        b = LinearSVM(sparse_binary.n_features, l2=0.0)
        a.step_example(row, y, lr=0.05)
        b.step_example(row.to_dense(), y, lr=0.05)
        np.testing.assert_allclose(a.w, b.w, atol=1e-12)

    def test_hinge_no_update_outside_margin(self):
        model = LinearSVM(3, l2=0.0)
        model.params["w"][:] = np.array([10.0, 0.0, 0.0])
        before = model.w.copy()
        model.step_example(np.array([1.0, 0.0, 0.0]), 1.0, lr=0.1)  # margin >> 1
        np.testing.assert_allclose(model.w, before)

    def test_l2_decays_weights(self):
        model = LinearSVM(2, l2=0.5)
        model.params["w"][:] = np.array([1.0, 1.0])
        model.step_example(np.array([1.0, 0.0]), 1.0, lr=0.1)  # within margin
        # Weight decay applied: w *= (1 - lr*l2) before the hinge update.
        assert model.w[1] == pytest.approx(0.95)


class TestTrainingQuality:
    def test_logistic_learns_separable_data(self):
        ds = make_binary_dense(800, 6, separation=2.5, seed=0)
        model = LogisticRegression(6)
        rng = np.random.default_rng(0)
        for _ in range(3):
            for i in rng.permutation(800):
                model.step_example(ds.X[i], float(ds.y[i]), lr=0.05)
        assert model.score(ds.X, ds.y) > 0.95

    def test_svm_learns_sparse_data(self):
        ds = make_binary_sparse(400, 120, nnz_per_row=15, separation=1.5, seed=2)
        model = LinearSVM(120)
        rng = np.random.default_rng(0)
        for _ in range(4):
            for i in rng.permutation(400):
                model.step_example(ds.X.row(int(i)), float(ds.y[i]), lr=0.05)
        assert model.score(ds.X, ds.y) > 0.9

    def test_linear_regression_r2(self):
        ds = make_regression(600, 5, noise=0.05, seed=1)
        model = LinearRegression(5)
        rng = np.random.default_rng(0)
        for epoch in range(5):
            lr = 0.05 * 0.9**epoch
            for i in rng.permutation(600):
                model.step_example(ds.X[i], float(ds.y[i]), lr=lr)
        assert model.score(ds.X, ds.y) > 0.95


class TestScoresAndPredictions:
    def test_predict_signs(self):
        model = LogisticRegression(2)
        model.params["w"][:] = np.array([1.0, 0.0])
        X = np.array([[2.0, 0.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(model.predict(X), [1.0, -1.0])

    def test_r2_of_mean_predictor_zero(self):
        model = LinearRegression(2)  # zero weights predicts 0
        X = np.zeros((4, 2))
        y = np.array([-1.0, 1.0, -1.0, 1.0])  # mean 0 => ss_res == ss_tot
        assert model.score(X, y) == pytest.approx(0.0)

    def test_decision_function_sparse(self, sparse_binary):
        model = LogisticRegression(sparse_binary.n_features)
        model.params["w"][:] = np.ones(sparse_binary.n_features)
        z_sparse = model.decision_function(sparse_binary.X)
        z_dense = model.decision_function(sparse_binary.X.to_dense())
        np.testing.assert_allclose(z_sparse, z_dense, atol=1e-10)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression(0)
        with pytest.raises(ValueError):
            LinearSVM(3, l2=-1.0)

    def test_parameter_vector(self):
        model = LogisticRegression(3)
        vec = model.parameter_vector()
        assert vec.shape == (4,)  # 3 weights + bias


class TestLossAndScore:
    """The end-of-epoch metrics in one pass equal ``loss`` and ``score`` taken
    one after the other, bit for bit (the GLMs share one decision function
    between them; the other models keep the two calls)."""

    @staticmethod
    def _problem(kind: str):
        if kind in ("lr", "svm"):
            ds = make_binary_dense(300, 9, seed=4)
            model = {"lr": LogisticRegression, "svm": LinearSVM}[kind](9, l2=1e-3)
        elif kind == "linreg":
            ds = make_regression(300, 9, seed=4)
            model = LinearRegression(9, l2=1e-3)
        else:
            ds = make_multiclass_dense(300, 9, 3, seed=4)
            model = MLPClassifier(9, 5, 3, seed=1) if kind == "mlp" else SoftmaxRegression(9, 3)
        # Off the zero start, so the scores are no single value.
        model.step_block(ds.X, ds.y, lr=0.05)
        return model, ds.X, ds.y

    @pytest.mark.parametrize("kind", ["lr", "svm", "linreg", "mlp", "softmax"])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_one_pass_equals_separate_metrics(self, kind, layout):
        model, X, y = self._problem(kind)
        if layout == "sparse":
            X = SparseMatrix.from_dense(np.where(np.abs(X) > 0.5, X, 0.0))
        loss, score = model.loss_and_score(X, y)
        assert loss == model.loss(X, y) and score == model.score(X, y)
        assert np.isfinite(loss) and 0.0 < abs(score)
