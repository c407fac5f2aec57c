"""Tests for the segmented (distributed) in-DB engine and EXPLAIN."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import clustered_by_label, make_binary_dense
from repro.db import (
    EngineError,
    MiniDB,
    ParseError,
    SegmentedMiniDB,
    TrainSpec,
    UnknownTableError,
    parse_query,
)
from repro.db.query import ExplainQuery
from repro.storage import SSD_SCALED


@pytest.fixture(scope="module")
def problem():
    ds = make_binary_dense(2400, 12, separation=1.2, seed=0)
    train, test = ds.split(0.9, seed=1)
    return clustered_by_label(train, seed=0), test


def _query(**overrides) -> TrainSpec:
    base = dict(
        table="t",
        model="lr",
        lr=0.5,
        epochs=5,
        block_size=4096,
        batch_size=32,
        strategy="corgipile",
    )
    base.update(overrides)
    return TrainSpec(**base)


class TestSegmentedCreate:
    def test_segments_partition_all_tuples(self, problem):
        train, _ = problem
        db = SegmentedMiniDB(3, device=SSD_SCALED)
        infos = db.create_table("t", train, distribution_block=40)
        assert len(infos) == 3
        assert sum(info.n_tuples for info in infos) == train.n_tuples

    def test_blocks_round_robin(self, problem):
        train, _ = problem
        db = SegmentedMiniDB(2, device=SSD_SCALED)
        infos = db.create_table("t", train, distribution_block=40)
        # Segment 0 holds blocks 0, 2, 4...: its first tuple is tuple 0 and
        # its 41st tuple is global tuple 80.
        seg0 = infos[0].dataset
        np.testing.assert_allclose(seg0.X[0], train.X[0])
        np.testing.assert_allclose(seg0.X[40], train.X[80])

    def test_duplicate_table_rejected(self, problem):
        train, _ = problem
        db = SegmentedMiniDB(2, device=SSD_SCALED)
        db.create_table("t", train)
        with pytest.raises(ValueError):
            db.create_table("t", train)

    def test_unknown_table(self):
        db = SegmentedMiniDB(2, device=SSD_SCALED)
        with pytest.raises(UnknownTableError):
            db.segment_tables("ghost")

    def test_validation(self, problem):
        train, _ = problem
        with pytest.raises(ValueError):
            SegmentedMiniDB(0)
        db = SegmentedMiniDB(2, device=SSD_SCALED)
        with pytest.raises(ValueError):
            db.create_table("t", train, distribution_block=0)


class TestSegmentedTraining:
    def test_converges_on_clustered_data(self, problem):
        train, test = problem
        db = SegmentedMiniDB(4, device=SSD_SCALED)
        db.create_table("t", train, distribution_block=40)
        result = db.train(_query(epochs=6), test=test)
        assert result.history.final.test_score > 0.8
        assert result.n_segments == 4

    def test_matches_single_engine_accuracy(self, problem):
        train, test = problem
        seg = SegmentedMiniDB(4, device=SSD_SCALED)
        seg.create_table("t", train, distribution_block=40)
        distributed = seg.train(_query(epochs=6), test=test)

        single = MiniDB(device=SSD_SCALED, page_bytes=1024)
        single.create_table("t", train)
        local = single.train(_query(epochs=6), test=test)
        assert abs(
            distributed.history.final.test_score - local.history.final.test_score
        ) < 0.06

    def test_segments_contribute_equally(self, problem):
        train, test = problem
        db = SegmentedMiniDB(4, device=SSD_SCALED)
        db.create_table("t", train, distribution_block=40)
        result = db.train(_query(epochs=2), test=test)
        counts = result.per_segment_tuples
        assert max(counts) - min(counts) <= 2 * 8 * 2  # ragged tails only

    def test_timeline_monotone(self, problem):
        train, test = problem
        db = SegmentedMiniDB(2, device=SSD_SCALED)
        db.create_table("t", train, distribution_block=40)
        result = db.train(_query(epochs=3), test=test)
        times = [p.time_s for p in result.timeline.points]
        assert times == sorted(times)
        assert times[0] > 0

    def test_batch_must_divide(self, problem):
        train, test = problem
        db = SegmentedMiniDB(3, device=SSD_SCALED)
        db.create_table("t", train)
        with pytest.raises(EngineError, match="divisible"):
            db.train(_query(batch_size=32), test=test)

    def test_only_corgipile_strategy(self, problem):
        train, test = problem
        db = SegmentedMiniDB(2, device=SSD_SCALED)
        db.create_table("t", train)
        with pytest.raises(EngineError, match="corgipile"):
            db.train(_query(strategy="no_shuffle"), test=test)


class TestExplain:
    def test_parse_explain(self):
        query = parse_query("EXPLAIN SELECT * FROM t TRAIN BY svm")
        assert isinstance(query, ExplainQuery)
        assert query.inner.model == "svm"

    def test_explain_predict_rejected(self):
        with pytest.raises(ParseError):
            parse_query("EXPLAIN SELECT * FROM t PREDICT BY model_1")

    @pytest.mark.parametrize(
        "strategy,expected",
        [
            ("corgipile", "TupleShuffle"),
            ("corgipile_single_buffer", "single-buffered"),
            ("block_only", "BlockShuffle"),
            ("no_shuffle", "SeqScan"),
            ("shuffle_once", "pre-shuffled copy"),
        ],
    )
    def test_plans_per_strategy(self, problem, strategy, expected):
        train, _ = problem
        db = MiniDB(page_bytes=1024)
        db.create_table("t", train)
        plan = db.execute(
            f"EXPLAIN SELECT * FROM t TRAIN BY lr WITH strategy = {strategy}, "
            "block_size = 4KB"
        )
        assert expected in plan
        assert "Heap 't'" in plan
        assert plan.startswith("SGD")

    def test_explain_does_not_train(self, problem):
        train, _ = problem
        db = MiniDB(page_bytes=1024)
        db.create_table("t", train)
        db.execute("EXPLAIN SELECT * FROM t TRAIN BY lr")
        assert db._models == {}
