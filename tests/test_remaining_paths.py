"""Coverage for remaining library paths: base-model fallback, evaluating a
model trained from batches."""

from __future__ import annotations

import numpy as np

from repro.data import make_multiclass_dense
from repro.ml import SGD, ExponentialDecay, MLPClassifier
from repro.ml.trainer import apply_unit, epoch_record
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
    """A loader loop's epochs scored by ``epoch_record``: loss and score on
    the train set, and a test score only when a test set is given."""

    def _train(self, ds, epochs, lr, test=None):
        n = ds.n_tuples
        batches = [dataset_block_batch(ds, lo, min(lo + 16, n)) for lo in range(0, n, 16)]
        model = MLPClassifier(5, 8, 3, seed=0)
        optimizer, schedule, seen, records = SGD(model), ExponentialDecay(lr), 0, []
        for epoch in range(epochs):
            rate = float(schedule(epoch))
            for batch in batches:
                y = batch.labels.astype(np.int64)
                apply_unit(model, optimizer, batch.features_matrix(), y, rate)
                seen += len(batch)
            records.append(epoch_record(model, ds, test, epoch, rate, seen))
        return records

    def test_without_a_test_set_the_score_is_none(self):
        ds = make_multiclass_dense(120, 5, 3, separation=3.0, seed=0)
        final = self._train(ds, epochs=2, lr=0.1)[-1]
        assert np.isfinite(final.train_loss)
        assert final.test_score is None
        assert final.tuples_seen == 240

    def test_with_train_eval(self):
        ds = make_multiclass_dense(120, 5, 3, separation=3.0, seed=0)
        records = self._train(ds, epochs=3, lr=0.2, test=ds)
        assert records[-1].train_loss < records[0].train_loss
        assert records[-1].test_score > 0.8
