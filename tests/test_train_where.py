"""``TRAIN ... WHERE``: bit-exactness, planner decision, warm start."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ordered_by_feature
from repro.db import EngineError, MiniDB, TrainSpec
from repro.db.plan import WHERE_STRATEGIES
from repro.db.query import CreateIndexQuery, parse_predicate

EPOCHS = 3
BLOCK = 4 * 1024


def _filtered_db(dataset, *, index: bool = True) -> MiniDB:
    db = MiniDB(page_bytes=1024)
    db.create_table("t", dataset)
    if index:
        db.create_index(CreateIndexQuery(name="ix_f0", table="t", column="f0"))
    return db


def _where_query(predicate: str, strategy: str = "corgipile", **kwargs) -> TrainSpec:
    return TrainSpec(
        table="t",
        model="lr",
        strategy=strategy,
        epochs=EPOCHS,
        block_size=BLOCK,
        buffer_fraction=0.2,
        seed=7,
        where=parse_predicate(predicate),
        **kwargs,
    )


def _reference(dataset, predicate: str, strategy: str):
    """Plain TRAIN over a *materialised* copy of the filtered subset."""
    mask = parse_predicate(predicate).mask(dataset.X, dataset.y)
    subset = dataset.subset(np.flatnonzero(mask))
    db = MiniDB(page_bytes=1024)
    db.create_table("t", subset)
    query = TrainSpec(
        table="t",
        model="lr",
        strategy=strategy,
        epochs=EPOCHS,
        block_size=BLOCK,
        buffer_fraction=0.2,
        seed=7,
    )
    return db.train(query)


def _assert_same_model(result, reference):
    for key in reference.model.params:
        assert np.array_equal(result.model.params[key], reference.model.params[key]), key
    got = [r.train_loss for r in result.history.records]
    want = [r.train_loss for r in reference.history.records]
    assert got == want


class TestBitExactness:
    @pytest.mark.parametrize("strategy", WHERE_STRATEGIES)
    def test_index_fetch_matches_materialised_subset(self, dense_binary, strategy):
        """Clustered key, selective range -> index path; every WHERE-capable
        strategy must train bit-identically to the materialised copy."""
        dataset = ordered_by_feature(dense_binary, 0, seed=0)
        threshold = float(np.quantile(np.asarray(dataset.X[:, 0]), 0.85))
        predicate = f"f0 >= {threshold!r}"
        db = _filtered_db(dataset)
        result = db.train(_where_query(predicate, strategy))
        if strategy != "no_shuffle":
            assert result.query.extra["where"]["fetch"] == "index"
        _assert_same_model(result, _reference(dataset, predicate, strategy))

    def test_scan_fetch_matches_materialised_subset(self, dense_binary):
        """Scattered qualifying pages -> full-scan prefetch; still bit-exact."""
        predicate = "f0 >= 0"  # ~half the shuffled table, every page qualifies
        db = _filtered_db(dense_binary)
        result = db.train(_where_query(predicate))
        assert result.query.extra["where"]["fetch"] == "scan"
        _assert_same_model(result, _reference(dense_binary, predicate, "corgipile"))

    def test_no_index_matches_indexed_run(self, dense_binary):
        """The physical path must not leak into the visit order: the same
        filtered TRAIN with and without an index trains identically."""
        dataset = ordered_by_feature(dense_binary, 0, seed=0)
        threshold = float(np.quantile(np.asarray(dataset.X[:, 0]), 0.85))
        predicate = f"f0 >= {threshold!r}"
        with_ix = _filtered_db(dataset).train(_where_query(predicate))
        without_ix = _filtered_db(dataset, index=False).train(_where_query(predicate))
        assert without_ix.query.extra["where"]["index"] is None
        for key in with_ix.model.params:
            assert np.array_equal(
                with_ix.model.params[key], without_ix.model.params[key]
            ), key

    def test_sparse_table_where(self, sparse_binary):
        predicate = "label = 1"
        db = MiniDB(page_bytes=1024)
        db.create_table("t", sparse_binary)
        result = db.train(_where_query(predicate))
        _assert_same_model(result, _reference(sparse_binary, predicate, "corgipile"))


class TestPlannerAndErrors:
    def test_auto_resolves_to_corgipile(self, dense_binary):
        db = _filtered_db(dense_binary)
        result = db.train(_where_query("f0 >= 0", strategy="auto"))
        assert result.query.strategy == "corgipile"

    def test_unsupported_strategy_rejected(self, dense_binary):
        db = _filtered_db(dense_binary)
        with pytest.raises(EngineError, match="WHERE"):
            db.train(_where_query("f0 >= 0", strategy="sliding_window"))

    def test_empty_match_rejected(self, dense_binary):
        db = _filtered_db(dense_binary)
        with pytest.raises(EngineError, match="match"):
            db.train(_where_query("f0 >= 1e12"))

    def test_decision_doc_recorded(self, dense_binary):
        dataset = ordered_by_feature(dense_binary, 0, seed=0)
        threshold = float(np.quantile(np.asarray(dataset.X[:, 0]), 0.9))
        db = _filtered_db(dataset)
        result = db.train(_where_query(f"f0 >= {threshold!r}"))
        decision = result.query.extra["where"]
        assert decision["index"] == "ix_f0"
        assert decision["fetch"] == "index"
        assert 0 < decision["n_matching"] < decision["n_tuples"]
        assert decision["physical"]["device_page_reads"] <= decision["physical"]["pages_fetched"]
        assert decision["physical"]["blocks_loaded"] >= EPOCHS  # >= one per epoch

    def test_explain_renders_where_block(self, dense_binary):
        dataset = ordered_by_feature(dense_binary, 0, seed=0)
        threshold = float(np.quantile(np.asarray(dataset.X[:, 0]), 0.9))
        db = _filtered_db(dataset)
        plan = db.explain(_where_query(f"f0 >= {threshold!r}"))
        assert f"WHERE f0 >= " in plan
        assert "index: ix_f0 on f0" in plan
        assert "fetch path:" in plan
        assert "RidBlockShuffle" in plan
        no_shuffle = db.explain(_where_query(f"f0 >= {threshold!r}", "no_shuffle"))
        assert "FilteredSeqScan" in no_shuffle

    def test_select_where_uses_index(self, dense_binary):
        from repro.db.query import parse_query

        dataset = ordered_by_feature(dense_binary, 0, seed=0)
        threshold = float(np.quantile(np.asarray(dataset.X[:, 0]), 0.95))
        db = _filtered_db(dataset)
        result = db.select(parse_query(f"SELECT * FROM t WHERE f0 >= {threshold!r}"))
        assert result["via_index"] == "ix_f0"
        assert result["rows"]
        assert all(row["features"][0] >= threshold for row in result["rows"])

    def test_observed_epoch_walls_recorded(self, dense_binary):
        db = _filtered_db(dense_binary)
        result = db.train(_where_query("f0 >= 0"))
        observed = result.query.extra["advisor"]["observed"]
        assert len(observed["epoch_wall_s"]) == EPOCHS
        assert all(w >= 0 for w in observed["epoch_wall_s"])
        assert observed["total_wall_s"] >= max(observed["epoch_wall_s"])


class TestWarmStart:
    def test_warm_start_from_registered_model(self, dense_binary):
        db = _filtered_db(dense_binary)
        first = db.train(_where_query("f0 >= 0"))
        frozen = {k: v.copy() for k, v in first.model.params.items()}
        second = db.train(
            _where_query("f0 >= 0", warm_start=first.model_id)
        )
        # The source model is cloned, never trained in place.
        for key in frozen:
            assert np.array_equal(first.model.params[key], frozen[key]), key
        # And the second run actually moved off the warm parameters.
        assert any(
            not np.array_equal(second.model.params[k], frozen[k]) for k in frozen
        )

    def test_warm_start_continues_convergence(self, dense_binary):
        db = _filtered_db(dense_binary)
        first = db.train(_where_query("f0 >= 0"))
        second = db.train(_where_query("f0 >= 0", warm_start=first.model_id))
        # Starting from trained weights, epoch 0 loss must beat the cold run's.
        assert (
            second.history.records[0].train_loss
            < first.history.records[0].train_loss
        )

    def test_warm_start_unknown_id_rejected(self, dense_binary):
        db = _filtered_db(dense_binary)
        with pytest.raises(EngineError, match="warm"):
            db.train(_where_query("f0 >= 0", warm_start="model_404"))

    def test_warm_start_type_mismatch_rejected(self, dense_binary):
        db = _filtered_db(dense_binary)
        svm = db.train(
            TrainSpec(
                table="t", model="svm", strategy="corgipile",
                epochs=1, block_size=BLOCK, seed=7,
            )
        )
        with pytest.raises(EngineError):
            db.train(_where_query("f0 >= 0", warm_start=svm.model_id))

    def test_warm_start_from_npz_path(self, dense_binary, tmp_path):
        from repro.ml import save_model

        db = _filtered_db(dense_binary)
        first = db.train(_where_query("f0 >= 0"))
        path = tmp_path / "warm.npz"
        save_model(first.model, path)
        second = db.train(_where_query("f0 >= 0", warm_start=str(path)))
        assert (
            second.history.records[0].train_loss
            < first.history.records[0].train_loss
        )
