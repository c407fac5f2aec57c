"""Cross-subsystem integration tests — the headline paper claims end to end.

These tests exercise whole paths through the library at once: file formats
→ block files → a CorgiPile loader loop → persistence → in-DB
inference, and the motivating performance/accuracy claims on the simulated
substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CorgiPileDataset, DataLoader, PrefetchLoader
from repro.data import clustered_by_label, make_binary_dense, read_libsvm, write_libsvm
from repro.db import MiniDB, run_in_db_system
from repro.ml import (
    SGD,
    ExponentialDecay,
    LogisticRegression,
    load_model,
    model_from_bytes,
    model_to_bytes,
)
from repro.ml.trainer import apply_unit
from repro.storage import HDD_SCALED, write_block_file


@pytest.fixture(scope="module")
def problem():
    ds = make_binary_dense(2000, 10, separation=1.2, seed=0)
    train, test = ds.split(0.9, seed=1)
    return clustered_by_label(train, seed=0), test


class TestFileToModelPipeline:
    """LIBSVM file → block file → CorgiPile loader loop → saved model → DB."""

    def test_full_pipeline(self, problem, tmp_path):
        train, test = problem

        # 1. Export/import through the interchange format.
        libsvm_path = tmp_path / "train.libsvm"
        write_libsvm(train, libsvm_path)
        loaded = read_libsvm(libsvm_path, n_features=train.n_features, dense=True)
        assert loaded.n_tuples == train.n_tuples

        # 2. Materialise as an on-disk block file and train from its loader
        #    (the two-level shuffle, real prefetching) in Section 5's loop.
        block_path = tmp_path / "train.blocks"
        write_block_file(loaded, block_path, tuples_per_block=40)
        model = LogisticRegression(train.n_features)
        optimizer, schedule, seen = SGD(model), ExponentialDecay(0.5), 0
        with CorgiPileDataset(block_path, buffer_blocks=5, seed=0) as dataset:
            for epoch in range(6):
                dataset.set_epoch(epoch)
                lr = float(schedule(epoch))
                for batch in PrefetchLoader(DataLoader(dataset, batch_size=32), depth=2):
                    apply_unit(model, optimizer, batch.features_matrix(), batch.labels, lr)
                    seen += len(batch)
        assert model.score(test.X, test.y) > 0.8
        assert seen == 6 * train.n_tuples

        # 3. Persist, reload, and serve from the database.
        blob = model_to_bytes(model)
        served = model_from_bytes(blob)
        db = MiniDB(page_bytes=1024)
        db.create_table("t", test)
        db._models["model_x"] = served
        predictions = db.execute("SELECT * FROM t PREDICT BY model_x")
        assert float(np.mean(predictions == test.y)) > 0.8

    def test_streaming_per_tuple_mode(self, problem, tmp_path):
        train, test = problem
        block_path = tmp_path / "t.blocks"
        write_block_file(train, block_path, tuples_per_block=40)
        model = LogisticRegression(train.n_features)
        schedule = ExponentialDecay(0.05)
        with CorgiPileDataset(block_path, buffer_blocks=5, seed=0) as dataset:
            for epoch in range(4):
                dataset.set_epoch(epoch)
                lr = float(schedule(epoch))
                for batch in DataLoader(dataset, batch_size=64):
                    # No optimiser: one update per tuple, the paper's standard SGD.
                    apply_unit(model, None, batch.features_matrix(), batch.labels, lr)
        assert model.score(test.X, test.y) > 0.8


class TestHeadlineClaims:
    """The abstract's claims, asserted on the simulated substrate."""

    def test_corgipile_converges_before_shuffle_once_finishes_shuffling(self, problem):
        train, test = problem
        corgi = run_in_db_system(
            "corgipile", "corgipile", train, test, "lr", HDD_SCALED,
            epochs=4, block_size=4096,
        )
        once = run_in_db_system(
            "bismarck", "shuffle_once", train, test, "lr", HDD_SCALED,
            epochs=4, block_size=4096,
        )
        target = 0.95 * once.history.final.test_score
        corgi_time = corgi.timeline.time_to_reach(target)
        assert corgi_time is not None
        # The motivating claim: when CorgiPile has converged, Shuffle Once
        # is still (or barely done) shuffling.
        assert corgi_time < once.timeline.setup_s * 2.5

    def test_engine_training_is_deterministic(self, problem):
        train, test = problem
        runs = [
            run_in_db_system(
                "corgipile", "corgipile", train, test, "lr", HDD_SCALED,
                epochs=3, block_size=4096, seed=7,
            )
            for _ in range(2)
        ]
        a, b = (tuple(r.train_loss for r in run.history.records) for run in runs)
        assert a == b

    def test_no_shuffle_diverges_deep_vs_glm_contrast(self, problem):
        # GLMs degrade gracefully under No Shuffle; the MLP collapses much
        # harder (Figure 7's "close to 0%" vs Figure 11's lower-but-nonzero).
        from repro.bench import run_convergence_sweep
        from repro.data import make_multiclass_dense
        from repro.ml import MLPClassifier

        train, test = problem
        glm = run_convergence_sweep(
            train, test, lambda: LogisticRegression(train.n_features),
            ("shuffle_once", "no_shuffle"), epochs=8, learning_rate=0.05,
            tuples_per_block=40, seed=0,
        ).final_scores()

        multi = make_multiclass_dense(2000, 24, 10, separation=2.5, seed=0)
        mtrain, mtest = multi.split(0.9, seed=1)
        mclustered = clustered_by_label(mtrain, seed=0)
        dl = run_convergence_sweep(
            mclustered, mtest,
            lambda: MLPClassifier(24, 24, 10, seed=0),
            ("shuffle_once", "no_shuffle"), epochs=8, learning_rate=0.2,
            decay=1.0, tuples_per_block=20, batch_size=16, seed=0,
        ).final_scores()

        glm_gap = glm["shuffle_once"] - glm["no_shuffle"]
        dl_gap = dl["shuffle_once"] - dl["no_shuffle"]
        assert dl_gap > glm_gap
