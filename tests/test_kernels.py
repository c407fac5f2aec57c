"""Fused ``step_block`` kernels: equivalence with the per-tuple reference path.

The fused kernels must preserve per-tuple standard-SGD semantics exactly —
same visit order, one update per tuple — so the tests here compare the
fused path against the ``step_example`` reference loop (reachable as the
unbound ``SupervisedModel.step_block``) and assert the parameters agree to
1e-9 or better.  The compiled loop (``repro.ml.kernels.IMPL == "c"``) is
held to more: ``assert_array_equal`` with the numpy kernels it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_binary_dense, make_binary_sparse
from repro.data.sparse import SparseMatrix, SparseRow
from repro.db import MiniDB, TrainSpec
from repro.ml import (
    ExponentialDecay,
    LinearRegression,
    LinearSVM,
    LogisticRegression,
    Trainer,
    csr_rows_unique,
    glm_epoch_dense,
    glm_epoch_sparse,
    kernels,
)
from repro.ml.losses import HingeLoss, LogisticLoss, SquaredLoss
from repro.ml.models.base import SupervisedModel
from repro.ml.trainer import apply_unit, fixed_order_source
from repro.storage import TupleBatch

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


def _step_example_epochs(model, data, orders, schedule):
    """The reference the trainers are held to: one ``step_example`` call per
    tuple, in each epoch's visit order, at that epoch's rate."""
    X = data.X
    row = X.row if isinstance(X, SparseMatrix) else X.__getitem__
    for epoch, order in enumerate(orders):
        lr = float(schedule(epoch))
        for i in order:
            model.step_example(row(int(i)), float(data.y[i]), lr)
    return model


class TestFusedPipelines:
    """Every trainer's per-tuple path is the kernel — and so is a loader
    loop's ``apply_unit`` per batch: each is checked against an explicit
    ``step_example`` loop over the visit order it runs."""

    def test_trainer_fused_matches_scalar(self):
        data = make_binary_dense(300, 10, separation=1.0, seed=5)
        orders = [np.random.default_rng(7 + e).permutation(data.n_tuples) for e in range(3)]
        model = LogisticRegression(data.n_features, l2=1e-3)
        Trainer(
            model, data, fixed_order_source("fixed", orders), epochs=3,
            schedule=ExponentialDecay(0.05),
        ).run()
        scalar = _step_example_epochs(
            LogisticRegression(data.n_features, l2=1e-3), data, orders, ExponentialDecay(0.05)
        )
        np.testing.assert_allclose(model.w, scalar.w, rtol=0, atol=1e-9)
        assert abs(model.b - scalar.b) <= 1e-9

    def test_trainer_fused_sparse(self):
        data = make_binary_sparse(200, 80, nnz_per_row=8, separation=1.0, seed=3)
        orders = [np.random.default_rng(11).permutation(data.n_tuples)] * 2
        model = LinearSVM(data.n_features)
        Trainer(
            model, data, fixed_order_source("fixed", orders), epochs=2,
            schedule=ExponentialDecay(0.05),
        ).run()
        scalar = _step_example_epochs(
            LinearSVM(data.n_features), data, orders, ExponentialDecay(0.05)
        )
        np.testing.assert_allclose(model.w, scalar.w, rtol=0, atol=1e-9)

    def test_streaming_fused_matches_scalar(self):
        data = make_binary_dense(256, 6, separation=1.0, seed=2)

        def loader(_epoch):
            for lo in range(0, data.n_tuples, 64):
                hi = min(lo + 64, data.n_tuples)
                yield TupleBatch(np.arange(lo, hi), data.y[lo:hi], data.n_features, dense=data.X[lo:hi])

        model, schedule = LogisticRegression(data.n_features, l2=1e-3), ExponentialDecay(0.05)
        for epoch in range(2):
            for batch in loader(epoch):
                apply_unit(model, None, batch.features_matrix(), batch.labels, schedule(epoch))
        scalar = _step_example_epochs(
            LogisticRegression(data.n_features, l2=1e-3), data,
            [np.arange(data.n_tuples)] * 2, ExponentialDecay(0.05),
        )
        np.testing.assert_allclose(model.w, scalar.w, rtol=0, atol=1e-9)

    def test_db_operator_fused_matches_scalar(self):
        """The engine's TRAIN against the reference over the ids its plan's
        pipeline emits (``TrainResult`` carries no visit order, so the
        orders are read off a second plan of the same statement)."""
        from repro.db.engine import ENGINE_PROFILE
        from repro.db.timing import RuntimeContext
        from repro.storage import SSD

        data = make_binary_dense(200, 8, separation=1.2, seed=9)
        spec = TrainSpec(
            table="t", model="lr", strategy="corgipile", epochs=2, block_size=2048, seed=0
        )

        def engine() -> MiniDB:
            db = MiniDB(page_bytes=1024)
            db.create_table("t", data)
            return db

        db = engine()
        plan, table = db.plan(spec), db.catalog.get("t")
        ctx = RuntimeContext(device=SSD, compute=ENGINE_PROFILE, double_buffer=plan.double_buffer)
        pipeline, _scan = db._build_pipeline(plan, table, ctx)
        pipeline.open()
        orders = []
        for epoch in range(spec.epochs):
            orders.append(np.concatenate([b.ids for b in iter(pipeline.next_batch, None)]))
            if epoch + 1 < spec.epochs:
                pipeline.rescan()
        pipeline.close()

        model = engine().train(spec).model
        scalar = _step_example_epochs(
            LogisticRegression(data.n_features), data, orders,
            ExponentialDecay(spec.lr, spec.decay),
        )
        np.testing.assert_allclose(model.w, scalar.w, rtol=0, atol=1e-9)
        assert abs(model.b - scalar.b) <= 1e-9


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


# ----------------------------------------------------------------------
# The compiled loop: bit-identical to the numpy kernels
# ----------------------------------------------------------------------

requires_c = pytest.mark.skipif(kernels.IMPL != "c", reason="compiled GLM loop not loaded")
_LOSSES = [LogisticLoss(), HingeLoss(), SquaredLoss()]
# decay = 1 - lr*l2 = 0.01 underflows the lazy scale past _MIN_SCALE every
# 65 tuples, so its re-materialisation runs several times per call.
_L2S = [0.0, 1e-4, 9.9]


def _dense_layout(layout: str, n: int, d: int, rng) -> np.ndarray:
    X = rng.standard_normal((n, d))
    if layout == "C":
        return X
    if layout == "F":
        return np.asfortranarray(X)
    if layout == "row-strided":
        big = np.zeros((2 * n, d))
        big[::2] = X
        return big[::2]
    big = np.zeros((n, 2 * d))  # col-strided: ddot with incx = 2
    big[:, ::2] = X
    return big[:, ::2]


def _assert_c_equals_numpy(loss, X, y, orders, lr, l2, fit_intercept):
    """Each order through the compiled loop and the numpy kernel, bits compared."""
    d = X.shape[1]
    w_c, b_c = np.linspace(-0.1, 0.1, d), np.array([0.05])
    w_n, b_n = w_c.copy(), b_c.copy()
    code = kernels._LOSS_CODES[type(loss)]
    for order in orders:
        assert kernels._compiled(kernels._LIB, w_c, b_c, code, X, y, order, lr, l2, fit_intercept)
        if order is None:
            order = np.arange(y.size)
        if isinstance(X, SparseMatrix):
            args = (X.indptr, X.indices, X.data, y, order, lr, l2, fit_intercept)
            b_n[0] = glm_epoch_sparse(w_n, b_n[0], loss, *args)
        else:
            b_n[0] = glm_epoch_dense(w_n, b_n[0], loss, X, y, order, lr, l2, fit_intercept)
        np.testing.assert_array_equal(w_c, w_n)
        np.testing.assert_array_equal(b_c, b_n)


@requires_c
class TestCompiledLoop:
    @pytest.mark.parametrize("loss", _LOSSES, ids=lambda loss: loss.name)
    @pytest.mark.parametrize("layout", ["C", "F", "row-strided", "col-strided", "csr"])
    @pytest.mark.parametrize("l2", _L2S)
    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_bit_identical_to_numpy(self, loss, layout, l2, fit_intercept):
        rng = np.random.default_rng(3)
        lr = 0.01 if isinstance(loss, SquaredLoss) and l2 < 1 else 0.1
        for d in (1, 4, 17, 64):
            X = _dense_layout("C" if layout == "csr" else layout, 120, d, rng)
            if layout == "csr":
                X[rng.random(X.shape) < 0.6] = 0.0
                X = SparseMatrix.from_dense(X)
            y = np.where(rng.random(120) < 0.5, -1.0, 1.0)
            # A permutation, a slice with repeats, and None (all rows in order).
            orders = [rng.permutation(120), rng.integers(0, 120, size=200), None]
            _assert_c_equals_numpy(loss, X, y, orders, lr, l2, fit_intercept)

    @pytest.mark.parametrize("loss", _LOSSES, ids=lambda loss: loss.name)
    @pytest.mark.parametrize("l2", _L2S)
    def test_csr_empty_rows_duplicates_and_unsorted_indices(self, loss, l2):
        # Rows: empty, duplicated column, unsorted, a column three times, empty.
        indptr = np.array([0, 0, 3, 6, 10, 10])
        indices = np.array([2, 2, 5, 7, 1, 4, 3, 3, 0, 3])
        values = np.array([0.5, -1.0, 2.0, 1.5, -0.5, 0.25, 1.0, 2.0, -1.0, 0.5])
        X = SparseMatrix(indptr, indices, values, (5, 8))
        assert not csr_rows_unique(X.indptr, X.indices)
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        rng = np.random.default_rng(5)
        orders = [rng.integers(0, 5, size=90), None]
        _assert_c_equals_numpy(loss, X, y, orders, 0.05, l2, True)

    @pytest.mark.parametrize("layout", ["C", "csr"])
    def test_logistic_clip_at_500(self, layout):
        # Every margin y z is over 800, so every coef is -y * exp(-500): the
        # clip is all that keeps it from underflowing to 0, and the weight the
        # helper starts at exactly 0 (the middle one) holds what it adds.
        rng = np.random.default_rng(9)
        X = rng.standard_normal((200, 5)) * 1e4
        z = X @ np.linspace(-0.1, 0.1, 5) + 0.05
        X, y = X[np.abs(z) > 800], np.sign(z[np.abs(z) > 800])
        X = X if layout == "C" else SparseMatrix.from_dense(X)
        _assert_c_equals_numpy(LogisticLoss(), X, y, [rng.permutation(y.size)], 0.1, 1e-4, True)

    def test_step_block_runs_the_compiled_loop(self, monkeypatch):
        def numpy_kernel(*args, **kwargs):
            raise AssertionError("the numpy kernel ran")

        monkeypatch.setattr(kernels, "glm_epoch_dense", numpy_kernel)
        monkeypatch.setattr(kernels, "glm_epoch_sparse", numpy_kernel)
        X, y = _dense_problem(n=40, d=8)
        LinearSVM(8).step_block(X, y, 0.05)
        Xs, ys = _sparse_problem(n=40, d=30, nnz=4)
        LinearSVM(30).step_block(Xs, ys, 0.05, order=np.arange(40)[::-1].copy())

    def test_build_is_cached_beside_the_source(self):
        path = kernels._build()
        assert path == kernels._build()
        assert path.parent == kernels._SOURCE.parent / "__pycache__"
        assert path.name.startswith("_glm.") and path.suffix == ".so"


class TestBadInputRaisesAsNumpy:
    """Either loop: out-of-range rows / columns behave exactly as the numpy kernels."""

    def _both(self, X, y, order, monkeypatch):
        """(outcome, w, b) of step_block on the default loop, then on numpy."""
        outcomes = []
        for impl in ("default", "numpy"):
            model = LogisticRegression(X.shape[1], l2=1e-3)
            with monkeypatch.context() as patch:
                if impl == "numpy":
                    patch.setattr(kernels, "_LIB", None)
                try:
                    model.step_block(X, y, 0.1, order=order)
                    outcome = None
                except IndexError:
                    outcome = IndexError
            outcomes.append((outcome, model.w.copy(), model.b))
        (got, w, b), (want, ref_w, ref_b) = outcomes
        assert got is want
        np.testing.assert_array_equal(w, ref_w)
        assert b == ref_b
        return got

    def test_dense_order_out_of_range(self, monkeypatch):
        X, y = _dense_problem(n=30, d=5)
        assert self._both(X, y, np.array([3, 7, 30, 1]), monkeypatch) is IndexError
        # Negative entries index from the end, as numpy does: no error.
        assert self._both(X, y, np.array([3, -1, -30]), monkeypatch) is None
        assert self._both(X, y, np.array([3, -31]), monkeypatch) is IndexError

    def test_labels_shorter_than_rows(self, monkeypatch):
        X, y = _dense_problem(n=30, d=5)
        assert self._both(X, y[:20], None, monkeypatch) is None
        assert self._both(X, y[:20], np.array([2, 25]), monkeypatch) is IndexError

    def test_sparse_order_and_column_out_of_range(self, monkeypatch):
        X, y = _sparse_problem(n=20, d=30, nnz=4)
        assert self._both(X, y, np.array([0, 5, 20]), monkeypatch) is IndexError
        bad = SparseMatrix(X.indptr, X.indices.copy(), X.data, X.shape)
        bad.indices[9] = 30  # row 2; the model has 30 weights
        assert self._both(bad, y, np.array([0, 1, 2, 3]), monkeypatch) is IndexError
        assert self._both(bad, y, np.array([0, 1, 3]), monkeypatch) is None
        bad.indices[9] = -2  # wraps in numpy
        assert self._both(bad, y, np.array([0, 2, 3]), monkeypatch) is None

    @requires_c
    def test_rejected_input_is_not_written(self):
        X, y = _dense_problem(n=10, d=4)
        w, b = np.ones(4), np.ones(1)
        order = np.array([0, 1, 10])
        assert not kernels._compiled(kernels._LIB, w, b, 0, X, y, order, 0.1, 0.1, True)
        np.testing.assert_array_equal(w, np.ones(4))
        assert b[0] == 1.0


class TestCsrDot:
    """The sparse decision ``X @ w``: the compiled loop gives ``SparseMatrix.dot``'s
    bits, and input it cannot address falls back to it."""

    @staticmethod
    def _matrices():
        X, _ = _sparse_problem(n=60, d=80, nnz=7, seed=3)
        empty = SparseRow(np.zeros(0, int), np.zeros(0), 80)
        rows = [X.row(i) if i % 7 else empty for i in range(60)]
        with_empty_rows = SparseMatrix.from_rows(rows, 80)
        zero_nnz = SparseMatrix(np.zeros(5, np.int64), np.zeros(0, np.int64), np.zeros(0), (4, 80))
        return [X, with_empty_rows, zero_nnz, SparseMatrix.from_rows([], 80)]

    @pytest.mark.parametrize("impl", ["default", "numpy"])
    def test_bitwise_equal_to_numpy(self, impl, monkeypatch):
        if impl == "numpy":
            monkeypatch.setattr(kernels, "_LIB", None)
        for X in self._matrices():
            for seed in range(5):
                model = LogisticRegression(80, init_scale=1.0, seed=seed)
                model.params["b"][0] = 0.25
                want = X.dot(model.w)
                np.testing.assert_array_equal(kernels.csr_dot(X, model.w), want)
                np.testing.assert_array_equal(model.decision_function(X), want + 0.25)

    @requires_c
    def test_compiled_path_runs(self):
        X = self._matrices()[1]
        w = np.random.default_rng(0).standard_normal(80)
        np.testing.assert_array_equal(kernels._compiled_csr_dot(kernels._LIB, X, w), X.dot(w))

    @requires_c
    def test_unaddressable_input_falls_back(self):
        X = self._matrices()[0]
        w = np.random.default_rng(1).standard_normal(80)
        strided_w = np.repeat(w, 2)[::2]
        int32 = SparseMatrix(X.indptr, X.indices, X.data, X.shape)
        int32.indices = X.indices.astype(np.int32)
        strided = SparseMatrix(X.indptr, X.indices, X.data, X.shape)
        strided.data = np.repeat(X.data, 2)[::2]
        for A, v in ((X, strided_w), (int32, w), (strided, w)):
            assert kernels._compiled_csr_dot(kernels._LIB, A, v) is None
            np.testing.assert_array_equal(kernels.csr_dot(A, v), X.dot(w))

    def test_bad_indices_behave_as_numpy(self):
        X = self._matrices()[0]
        w = np.random.default_rng(2).standard_normal(80)
        bad = SparseMatrix(X.indptr, X.indices.copy(), X.data, X.shape)
        bad.indices[3] = -2  # numpy wraps a negative index
        np.testing.assert_array_equal(kernels.csr_dot(bad, w), bad.dot(w))
        bad.indices[3] = 80
        with pytest.raises(IndexError):
            kernels.csr_dot(bad, w)
        if kernels.IMPL == "c":
            assert kernels._compiled_csr_dot(kernels._LIB, bad, w) is None
