"""EXPLAIN is what ran: one PhysicalPlan is rendered, executed and recorded.

``MiniDB.plan`` is the only planner; ``explain`` renders its result and
``train`` executes it and records its document in ``query.extra["plan"]``.
These tests pin that the three are the same object's views, over every
strategy and every plan shape, plus the defects the single plan fixed.
"""

from __future__ import annotations

import pytest

from repro.data import clustered_by_label, make_binary_dense
from repro.db import EngineError, MiniDB, ParseError, explain_train_plan, parse_query
from repro.db.plan import STRATEGIES
from repro.db.query import ExplainQuery

SHAPES = {
    "plain": ("", ""),
    "where": ("WHERE f0 >= 0 ", ""),
    "workers": ("", ", workers = 2, aggregation = 'epoch'"),
    "grid": ("", ", grid = (lr = 0.1 | 0.01)"),
}


def _db(n: int = 400) -> MiniDB:
    db = MiniDB(page_bytes=1024)
    db.create_table("t", clustered_by_label(make_binary_dense(n, 6, seed=3), seed=3))
    db.execute("CREATE INDEX ix0 ON t (f0)")
    return db


def _sql(strategy: str, shape: str) -> str:
    where, knobs = SHAPES[shape]
    return (
        f"SELECT * FROM t {where}TRAIN BY lr WITH strategy = {strategy}, "
        f"max_epoch_num = 1, block_size = 4KB, buffer_fraction = 0.2, seed = 5{knobs}"
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("strategy", STRATEGIES + ("auto",))
def test_explain_is_what_ran(strategy, shape):
    db = _db()
    sql = _sql(strategy, shape)
    try:
        plan = db.plan(parse_query(sql))
    except EngineError:
        # A combination with no plan has none anywhere: EXPLAIN and TRAIN
        # refuse it with the same typed error, before anything runs.
        with pytest.raises(EngineError):
            db.execute("EXPLAIN " + sql)
        with pytest.raises(EngineError):
            db.execute(sql)
        assert db.model_ids() == []
        return
    assert db.execute("EXPLAIN " + sql) == explain_train_plan(plan)
    result = db.execute(sql)
    assert result.query.extra["plan"] == plan.to_doc()
    assert result.query.strategy == plan.strategy
    assert result.timeline.system == plan.system
    expected_executor = "blockfile" if shape in ("workers", "grid") else "heap"
    assert plan.executor == expected_executor


def test_block_file_executors_run_corgipile_only():
    """One rule for workers > 1 and grid: an explicit other strategy is a
    typed error at plan time; ``auto`` resolves to corgipile and keeps the
    advisor's evidence."""
    db = _db()
    for shape in ("workers", "grid"):
        with pytest.raises(EngineError, match="corgipile"):
            db.plan(parse_query(_sql("no_shuffle", shape)))
        plan = db.plan(parse_query(_sql("auto", shape)))
        assert plan.strategy == "corgipile"
        assert plan.advisor is not None
        assert plan.to_doc()["advisor"]["strategy"] == plan.advisor.strategy
        assert "Advisor (device=ssd" in explain_train_plan(plan)


def test_explain_workers_shows_the_block_file_plan():
    """Was: the single-process heap tree (``BlockShuffle (blocks=42 ...) ->
    Heap``) for a statement the executor ran over a 2-shard block file."""
    db = _db(2000)
    text = db.execute(
        "EXPLAIN SELECT * FROM t TRAIN BY lr WITH workers = 2, block_size = 64KB"
    )
    assert "ShardBlockFile" in text and "BlockShuffle" not in text
    assert "2 shards" in text
    # 64KB would pack ~1000 tuples a block; the fair-share cap (every shard
    # owns >= 4 blocks) holds it to 2000 // (4 * 2).
    assert "250 tuples/block" in text
    assert "[setup: materialise block file (250 tuples/block)]" in text


def test_plan_is_a_pure_function_of_the_statement():
    """Was: each heap TRAIN appended its simulated epoch walls to a per-table
    history that the next ``auto`` plan fitted κ from, so EXPLAIN changed
    after a TRAIN, and on a pool-resident table the refit κ = 0 flipped the
    pick to ``no_shuffle``."""
    db = _db(1200)
    spec = parse_query(
        "SELECT * FROM t TRAIN BY lr WITH strategy = auto, max_epoch_num = 3, "
        "block_size = 8KB, seed = 1"
    )
    text, doc = db.explain(spec), db.plan(spec).to_doc()
    assert doc["advisor"] is not None
    for _ in range(2):
        trained = db.train(spec)
        assert trained.query.extra["plan"] == doc
    assert db.explain(spec) == text
    assert db.plan(spec).to_doc() == doc


def test_plan_is_side_effect_free():
    db = _db()
    db.plan(parse_query(_sql("shuffle_once", "plain")))
    db.plan(parse_query(_sql("corgi2", "plain")))
    assert db.model_ids() == []
    assert "t__shuffled_5" not in db.catalog and "t__corgi2_5" not in db.catalog


@pytest.fixture(scope="module")
def problem():
    ds = make_binary_dense(2400, 12, separation=1.2, seed=0)
    train, test = ds.split(0.9, seed=1)
    return clustered_by_label(train, seed=0), test


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
