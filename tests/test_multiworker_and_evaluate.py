"""Tests for MultiWorkerLoader and the EVALUATE BY query."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MultiWorkerLoader
from repro.data import make_binary_dense, make_regression
from repro.db import EvaluateQuery, MiniDB, UnknownModelError, parse_query
from repro.ml import SGD, ExponentialDecay, LogisticRegression
from repro.ml.trainer import apply_unit
from repro.storage import write_block_file


@pytest.fixture()
def block_file(tmp_path, dense_binary):
    path = tmp_path / "mw.blocks"
    write_block_file(dense_binary, path, tuples_per_block=30)
    return path


class TestMultiWorkerLoader:
    def test_covers_dataset_once(self, block_file, dense_binary):
        with MultiWorkerLoader(block_file, 3, 2, batch_size=32, seed=0) as loader:
            ids = [int(i) for batch in loader for i in batch.ids]
        assert sorted(ids) == list(range(dense_binary.n_tuples))

    def test_round_robin_interleaves_workers(self, block_file):
        with MultiWorkerLoader(block_file, 2, 2, batch_size=32, seed=0) as loader:
            batches = list(loader)
        # First two batches come from different workers: they draw from
        # disjoint block slices, so their tuple-id ranges cannot coincide.
        assert set(batches[0].ids.tolist()).isdisjoint(batches[1].ids.tolist())

    def test_set_epoch_changes_order(self, block_file):
        with MultiWorkerLoader(block_file, 2, 2, batch_size=32, seed=0) as loader:
            first = [int(i) for b in loader for i in b.ids]
            loader.set_epoch(1)
            second = [int(i) for b in loader for i in b.ids]
        assert first != second
        assert sorted(first) == sorted(second)

    def test_trains_a_model(self, block_file, dense_binary):
        model = LogisticRegression(dense_binary.n_features)
        optimizer, schedule = SGD(model), ExponentialDecay(0.5)
        with MultiWorkerLoader(block_file, 2, 2, batch_size=32, seed=0) as loader:
            for epoch in range(5):
                loader.set_epoch(epoch)
                for batch in loader:
                    apply_unit(
                        model, optimizer, batch.features_matrix(), batch.labels, schedule(epoch)
                    )
        assert model.score(dense_binary.X, dense_binary.y) > 0.85

    def test_validation(self, block_file):
        with pytest.raises(ValueError):
            MultiWorkerLoader(block_file, 0, 2, batch_size=8)
        with pytest.raises(ValueError):
            MultiWorkerLoader(block_file, 2, 2, batch_size=0)

    def test_n_properties(self, block_file, dense_binary):
        with MultiWorkerLoader(block_file, 4, 1, batch_size=16) as loader:
            assert loader.n_workers == 4
            assert loader.n_tuples == dense_binary.n_tuples


class TestEvaluateQuery:
    def test_parse(self):
        query = parse_query("SELECT * FROM t EVALUATE BY model_2")
        assert isinstance(query, EvaluateQuery)
        assert query.model_id == "model_2"

    def test_accuracy_metric(self):
        ds = make_binary_dense(400, 6, separation=2.5, seed=0)
        db = MiniDB(page_bytes=1024)
        db.create_table("t", ds)
        result = db.execute(
            "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 3, block_size = 4KB"
        )
        report = db.execute(f"SELECT * FROM t EVALUATE BY {result.model_id}")
        assert report["metric"] == "accuracy"
        assert report["value"] > 0.9
        assert report["n_tuples"] == 400

    def test_r2_metric_for_regression(self):
        ds = make_regression(400, 5, noise=0.1, seed=0)
        db = MiniDB(page_bytes=1024)
        db.create_table("r", ds)
        result = db.execute(
            "SELECT * FROM r TRAIN BY linreg WITH max_epoch_num = 5, "
            "learning_rate = 0.05, block_size = 4KB"
        )
        report = db.execute(f"SELECT * FROM r EVALUATE BY {result.model_id}")
        assert report["metric"] == "r2"
        assert report["value"] > 0.8

    def test_unknown_model(self):
        ds = make_binary_dense(50, 4, seed=0)
        db = MiniDB(page_bytes=1024)
        db.create_table("t", ds)
        with pytest.raises(UnknownModelError):
            db.execute("SELECT * FROM t EVALUATE BY model_404")

    def test_evaluate_on_second_table(self):
        full = make_binary_dense(600, 6, separation=2.5, seed=0)
        train, holdout = full.split(0.7, seed=1)
        db = MiniDB(page_bytes=1024)
        db.create_table("train", train)
        db.create_table("holdout", holdout)
        result = db.execute(
            "SELECT * FROM train TRAIN BY lr WITH max_epoch_num = 3, block_size = 4KB"
        )
        report = db.execute(f"SELECT * FROM holdout EVALUATE BY {result.model_id}")
        assert report["table"] == "holdout"
        assert report["value"] > 0.85
