"""End-to-end tests for the MiniDB engine and the comparator systems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import clustered_by_label, make_binary_dense, make_binary_sparse
from repro.db import (
    MiniDB,
    Timeline,
    TrainQuery,
    UnknownModelError,
    UnknownTableError,
    madlib_supports,
    run_framework,
    run_in_db_system,
)
from repro.db.systems import BISMARCK_PROFILE, MADLIB_PROFILE, PYTORCH_PROFILE
from repro.ml import LogisticRegression
from repro.storage import HDD, SSD


@pytest.fixture(scope="module")
def problem():
    ds = make_binary_dense(1500, 16, separation=1.4, seed=0)
    train, test = ds.split(0.9, seed=1)
    return clustered_by_label(train), test


@pytest.fixture()
def db(problem):
    train, _ = problem
    engine = MiniDB(device=SSD)
    engine.create_table("higgs", train)
    return engine


SQL = (
    "SELECT * FROM higgs TRAIN BY lr WITH learning_rate = 0.1, max_epoch_num = 5, "
    "block_size = 16KB, buffer_fraction = 0.1"
)


class TestTrainQuery:
    def test_sql_roundtrip(self, db, problem):
        _, test = problem
        result = db.execute(SQL, test=test)
        assert result.history.epochs == 5
        assert result.history.final.test_score > 0.75
        assert result.timeline.total_time_s > 0
        assert result.model_id == "model_1"

    def test_predict_by_model_id(self, db, problem):
        _, test = problem
        result = db.execute(SQL, test=test)
        preds = db.execute(f"SELECT * FROM higgs PREDICT BY {result.model_id}")
        assert set(np.unique(preds)) <= {-1.0, 1.0}
        assert preds.shape == (db.catalog.get("higgs").n_tuples,)

    def test_unknown_model(self, db):
        with pytest.raises(UnknownModelError):
            db.execute("SELECT * FROM higgs PREDICT BY model_99")

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.execute("SELECT * FROM nope TRAIN BY lr")

    def test_epoch_wall_times_positive(self, db, problem):
        _, test = problem
        result = db.execute(SQL, test=test)
        assert all(p.time_s > 0 for p in result.timeline.points)
        times = [p.time_s for p in result.timeline.points]
        assert times == sorted(times)


class TestStrategies:
    @pytest.mark.parametrize(
        "strategy", ["corgipile", "no_shuffle", "shuffle_once", "block_only"]
    )
    def test_all_strategies_run(self, problem, strategy):
        train, test = problem
        result = run_in_db_system(
            "corgipile", strategy, train, test, "svm", SSD,
            epochs=3, block_size=16 * 1024,
        )
        assert result.history.epochs == 3
        assert 0.4 <= result.history.final.test_score <= 1.0

    def test_shuffle_once_pays_setup_and_disk(self, problem):
        train, test = problem
        once = run_in_db_system(
            "bismarck", "shuffle_once", train, test, "lr", HDD, epochs=2,
            block_size=16 * 1024,
        )
        corgi = run_in_db_system(
            "corgipile", "corgipile", train, test, "lr", HDD, epochs=2,
            block_size=16 * 1024,
        )
        assert once.timeline.setup_s > 0
        assert corgi.timeline.setup_s == 0
        assert once.resources.extra_disk_bytes > 0
        assert corgi.resources.extra_disk_bytes == 0

    def test_materialised_copies_never_reach_the_catalog(self):
        """The Shuffle-Once / Corgi² copy lives for its statement: no
        ``t__shuffled_<seed>`` / ``t__corgi2_<seed>`` table (a heap, a Dataset
        and a pool each) is left in the catalog.  Weights and the disk charge
        are those of the registered-copy engine (digests recorded at
        ``ee57411``)."""
        import hashlib

        engine = MiniDB()
        engine.create_table("t", clustered_by_label(make_binary_dense(600, 8, separation=1.4, seed=0)))
        want = {
            ("shuffle_once", 0): "839f9e1ed1a4901b",
            ("shuffle_once", 1): "92945841d0191bb4",
            ("shuffle_once", 2): "ac91e4aa2931059a",
            ("corgi2", 0): "df561c17ccc661d3",
        }
        for (strategy, seed), digest in want.items():
            result = engine.execute(
                "SELECT * FROM t TRAIN BY lr WITH learning_rate = 0.1, max_epoch_num = 2, "
                f"block_size = 16KB, buffer_fraction = 0.2, strategy = {strategy}, seed = {seed}"
            )
            weights = result.model.parameter_vector()
            assert hashlib.sha256(weights.tobytes()).hexdigest()[:16] == digest
            assert result.resources.extra_disk_bytes == 57344.0
            assert engine.catalog.names() == ["t"]

    def test_corgipile_matches_shuffle_once_accuracy(self, problem):
        train, test = problem
        kwargs = dict(epochs=8, block_size=8 * 1024, learning_rate=0.05)
        corgi = run_in_db_system("corgipile", "corgipile", train, test, "lr", SSD, **kwargs)
        once = run_in_db_system("corgipile", "shuffle_once", train, test, "lr", SSD, **kwargs)
        none = run_in_db_system("corgipile", "no_shuffle", train, test, "lr", SSD, **kwargs)
        assert abs(corgi.history.final.test_score - once.history.final.test_score) < 0.05
        assert none.history.final.test_score < corgi.history.final.test_score

    def test_double_buffer_faster_than_single(self, problem):
        train, test = problem
        double = run_in_db_system(
            "corgipile", "corgipile", train, test, "lr", HDD, epochs=2,
            block_size=16 * 1024,
        )
        single = run_in_db_system(
            "corgipile", "corgipile_single_buffer", train, test, "lr", HDD, epochs=2,
            block_size=16 * 1024,
        )
        assert double.timeline.total_time_s <= single.timeline.total_time_s

    def test_unknown_strategy(self, db):
        query = TrainQuery(table="higgs", model="lr", strategy="chaos")
        with pytest.raises(Exception):
            db.train(query)


class TestSystems:
    def test_madlib_slower_per_epoch_than_bismarck(self, problem):
        train, test = problem
        madlib = run_in_db_system(
            "madlib", "no_shuffle", train, test, "svm", SSD, epochs=2, block_size=16 * 1024
        )
        bismarck = run_in_db_system(
            "bismarck", "no_shuffle", train, test, "svm", SSD, epochs=2, block_size=16 * 1024
        )
        assert madlib.resources.compute_seconds > bismarck.resources.compute_seconds

    def test_madlib_rejects_sparse_glm(self):
        sparse = make_binary_sparse(200, 100, seed=0)
        assert not madlib_supports("lr", sparse)
        with pytest.raises(ValueError):
            run_in_db_system("madlib", "no_shuffle", sparse, None, "lr", SSD, epochs=1)

    def test_profiles_ordering(self):
        assert MADLIB_PROFILE.per_tuple_s > BISMARCK_PROFILE.per_tuple_s
        assert PYTORCH_PROFILE.per_tuple_s > MADLIB_PROFILE.per_tuple_s

    def test_compressed_table_costs_more_compute(self, problem):
        train, test = problem
        plain = run_in_db_system(
            "corgipile", "corgipile", train, test, "lr", SSD, epochs=2,
            block_size=16 * 1024, compress=False,
        )
        packed = run_in_db_system(
            "corgipile", "corgipile", train, test, "lr", SSD, epochs=2,
            block_size=16 * 1024, compress=True,
        )
        assert packed.resources.compute_seconds > plain.resources.compute_seconds


class TestFramework:
    def test_run_framework_timeline(self, problem):
        train, test = problem
        model = LogisticRegression(train.n_features)
        run = run_framework(
            train, test, model, "corgipile", SSD, epochs=3, tuples_per_block=15
        )
        assert run.per_epoch_s > 0
        assert len(run.timeline.points) == 3
        assert run.history.final.test_score > 0.6

    def test_in_memory_faster_when_io_bound(self, problem):
        # Use a near-free compute profile so I/O dominates the epoch.
        from repro.db import ComputeProfile

        light = ComputeProfile("light", per_tuple_s=1e-9, per_value_s=0.0)
        train, test = problem
        fast = run_framework(
            train, test, LogisticRegression(train.n_features), "no_shuffle", HDD,
            epochs=1, in_memory=True, compute=light,
        )
        slow = run_framework(
            train, test, LogisticRegression(train.n_features), "no_shuffle", HDD,
            epochs=1, in_memory=False, compute=light,
        )
        assert fast.per_epoch_s < slow.per_epoch_s
        assert fast.timeline.setup_s > 0  # paid the initial load

    def test_workers_divide_compute(self, problem):
        train, test = problem
        one = run_framework(
            train, test, LogisticRegression(train.n_features), "no_shuffle", SSD,
            epochs=1, in_memory=True, n_workers=1,
        )
        eight = run_framework(
            train, test, LogisticRegression(train.n_features), "no_shuffle", SSD,
            epochs=1, in_memory=True, n_workers=8,
        )
        assert eight.per_epoch_s < one.per_epoch_s


class TestResources:
    def test_corgipile_buffer_memory_accounted(self, problem):
        train, test = problem
        result = run_in_db_system(
            "corgipile", "corgipile", train, test, "lr", SSD, epochs=1,
            block_size=16 * 1024, buffer_fraction=0.1,
        )
        assert result.resources.buffer_memory_bytes > 0
        assert result.resources.cpu_utilisation > 0

    def test_no_shuffle_needs_no_buffer(self, problem):
        train, test = problem
        result = run_in_db_system(
            "corgipile", "no_shuffle", train, test, "lr", SSD, epochs=1,
            block_size=16 * 1024,
        )
        assert result.resources.buffer_memory_bytes == 0


class TestTimeline:
    def test_time_to_reach_and_speedup(self):
        a = Timeline(system="a")
        b = Timeline(system="b", setup_s=10.0)
        for e in range(3):
            a.append(1.0, e, 0.5, 0.6, 0.6 + 0.1 * e)
            b.append(1.0, e, 0.5, 0.6, 0.6 + 0.1 * e)
        assert a.time_to_reach(0.7) == pytest.approx(2.0)
        assert b.time_to_reach(0.7) == pytest.approx(12.0)
        assert a.speedup_over(b, 0.7) == pytest.approx(6.0)
        assert a.time_to_reach(0.99) is None


class TestModelTableValidation:
    def test_binary_model_on_multiclass_table_rejected(self):
        from repro.data import make_multiclass_dense
        from repro.db import EngineError

        db = MiniDB(page_bytes=1024)
        db.create_table("m", make_multiclass_dense(100, 4, 3, seed=0))
        with pytest.raises(EngineError, match="binary"):
            db.execute("SELECT * FROM m TRAIN BY svm")

    def test_softmax_on_binary_table_rejected(self):
        from repro.data import make_binary_dense
        from repro.db import EngineError

        db = MiniDB(page_bytes=1024)
        db.create_table("b", make_binary_dense(100, 4, seed=0))
        with pytest.raises(EngineError, match="multiclass"):
            db.execute("SELECT * FROM b TRAIN BY softmax")

    def test_linreg_on_binary_table_rejected(self):
        from repro.data import make_binary_dense
        from repro.db import EngineError

        db = MiniDB(page_bytes=1024)
        db.create_table("b", make_binary_dense(100, 4, seed=0))
        with pytest.raises(EngineError, match="regression"):
            db.execute("SELECT * FROM b TRAIN BY linreg")

    def test_matching_tasks_accepted(self):
        from repro.data import make_multiclass_dense

        db = MiniDB(page_bytes=1024)
        db.create_table("m", make_multiclass_dense(200, 6, 3, separation=3.0, seed=0))
        result = db.execute(
            "SELECT * FROM m TRAIN BY softmax WITH max_epoch_num = 2, block_size = 4KB"
        )
        assert result.history.epochs == 2


class TestParallelWorkers:
    """``WITH workers = PN`` routes through the multi-process engine."""

    def test_sync_parallel_train_and_predict(self, db, problem):
        train, test = problem
        result = db.execute(
            "SELECT * FROM higgs TRAIN BY lr WITH workers = 2, max_epoch_num = 2, "
            "batch_size = 32, learning_rate = 0.05, block_size = 2KB",
            test=test,
        )
        assert result.query.workers == 2
        assert result.query.extra["parallel"]["n_workers"] == 2
        assert result.query.extra["parallel"]["tuples_processed"] > 0
        assert len(result.timeline.points) == 2
        assert result.timeline.total_time_s > 0  # measured, not modeled
        assert result.resources.io_seconds == 0.0
        assert result.history.final.train_score > 0.7
        preds = db.execute(f"SELECT * FROM higgs PREDICT BY {result.model_id}")
        assert preds.shape == (train.n_tuples,)

    def test_epoch_aggregation(self, db):
        result = db.execute(
            "SELECT * FROM higgs TRAIN BY lr WITH workers = 2, "
            "aggregation = 'epoch', max_epoch_num = 2, learning_rate = 0.05, "
            "block_size = 2KB"
        )
        assert result.query.extra["parallel"]["mode"] == "epoch"
        assert result.history.final.train_score > 0.7

    def test_default_block_size_still_shards(self, db):
        # A block_size that would pack the whole table into fewer blocks than
        # there are workers must be capped, not allowed to leave a shard
        # empty (sync mode would silently train nothing).
        result = db.execute(
            "SELECT * FROM higgs TRAIN BY lr WITH workers = 2, max_epoch_num = 2, "
            "batch_size = 32, learning_rate = 0.05, block_size = 64MB"
        )
        assert result.query.extra["parallel"]["sync_steps"] > 0
        assert result.history.final.train_score > 0.7

    def test_unfillable_sync_batch_rejected(self, db):
        from repro.db import EngineError

        tiny = make_binary_dense(40, 4, separation=1.0, seed=0)
        db.create_table("tiny", tiny)
        with pytest.raises(EngineError, match="sync step"):
            db.execute(
                "SELECT * FROM tiny TRAIN BY lr WITH workers = 2, "
                "max_epoch_num = 1, batch_size = 64"
            )

    def test_bad_aggregation_rejected(self, db):
        from repro.db import EngineError

        with pytest.raises(EngineError, match="aggregation"):
            db.execute(
                "SELECT * FROM higgs TRAIN BY lr WITH workers = 2, "
                "aggregation = 'gossip'"
            )

    def test_non_corgipile_strategy_rejected(self, db):
        from repro.db import EngineError

        with pytest.raises(EngineError, match="corgipile"):
            db.execute(
                "SELECT * FROM higgs TRAIN BY lr WITH workers = 2, "
                "strategy = 'no_shuffle'"
            )
