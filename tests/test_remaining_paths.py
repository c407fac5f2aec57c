"""Coverage for remaining library paths: base-model fallback, streaming
evaluation."""

from __future__ import annotations

import numpy as np

from repro.data import make_multiclass_dense
from repro.ml import ExponentialDecay, MLPClassifier
from repro.ml.streaming import train_streaming
from repro.storage.blockfile import dataset_block_batch


class TestBaseModelFallback:
    def test_mlp_step_example_uses_generic_path(self):
        """MLP has no specialised per-tuple update: the SupervisedModel
        fallback must route through gradient() and actually learn."""
        ds = make_multiclass_dense(300, 6, 3, separation=3.0, seed=0)
        model = MLPClassifier(6, 12, 3, seed=0)
        before = model.loss(ds.X, ds.y)
        rng = np.random.default_rng(0)
        for _ in range(2):
            for i in rng.permutation(300):
                model.step_example(ds.X[i], float(ds.y[i]), lr=0.05)
        assert model.loss(ds.X, ds.y) < before
        assert model.score(ds.X, ds.y) > 0.8

    def test_mlp_step_example_sparse_row(self):
        from repro.data import make_multiclass_sparse

        ds = make_multiclass_sparse(50, 100, 3, seed=0)
        model = MLPClassifier(100, 8, 3, seed=0)
        model.step_example(ds.X.row(0), float(ds.y[0]), lr=0.01)  # must not raise


class TestStreamingEvaluation:
    def _batches(self, ds):
        n = ds.n_tuples
        return [dataset_block_batch(ds, lo, min(lo + 16, n)) for lo in range(0, n, 16)]

    def test_without_eval_sets_loss_is_nan(self):
        ds = make_multiclass_dense(120, 5, 3, separation=3.0, seed=0)
        model = MLPClassifier(5, 8, 3, seed=0)
        batches = self._batches(ds)

        history = train_streaming(
            model,
            lambda epoch: batches,
            epochs=2,
            schedule=ExponentialDecay(0.1),
        )
        assert np.isnan(history.final.train_loss)
        assert history.final.test_score is None
        assert history.final.tuples_seen == 240

    def test_with_train_eval(self):
        ds = make_multiclass_dense(120, 5, 3, separation=3.0, seed=0)
        model = MLPClassifier(5, 8, 3, seed=0)
        batches = self._batches(ds)
        history = train_streaming(
            model,
            lambda epoch: batches,
            epochs=3,
            schedule=ExponentialDecay(0.2),
            train_eval=ds,
            test=ds,
        )
        assert history.train_losses[-1] < history.train_losses[0]
        assert history.final.test_score > 0.8
