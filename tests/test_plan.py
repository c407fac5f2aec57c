"""EXPLAIN is what ran: one PhysicalPlan is rendered, executed and recorded.

``MiniDB.plan`` is the only planner; ``explain`` renders its result and
``train`` executes it and records its document in ``query.extra["plan"]``.
These tests pin that the three are the same object's views, over every
strategy and every plan shape, plus the defects the single plan fixed.
"""

from __future__ import annotations

import pytest

from repro.data import clustered_by_label, make_binary_dense
from repro.db import EngineError, MiniDB, explain_train_plan, parse_query
from repro.db.plan import STRATEGIES

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


def test_explain_after_train_uses_the_next_trains_kappa_history():
    """Was: EXPLAIN called the advisor without the table's observed walls,
    so it could show a different pick than the TRAIN that followed."""
    db = _db(1200)
    sql = (
        "SELECT * FROM t TRAIN BY lr WITH strategy = auto, max_epoch_num = 3, "
        "block_size = 8KB, seed = 1"
    )
    db.execute(sql)  # records three simulated epoch walls for table t
    explained = db.plan(parse_query(sql))
    assert db.execute("EXPLAIN " + sql) == explain_train_plan(explained)
    trained = db.execute(sql)
    assert explained.advisor.kappa_observations >= 3
    assert explained.advisor.to_doc() == trained.query.extra["plan"]["advisor"]


def test_plan_is_side_effect_free():
    db = _db()
    db.plan(parse_query(_sql("shuffle_once", "plain")))
    db.plan(parse_query(_sql("corgi2", "plain")))
    assert db.model_ids() == []
    assert "t__shuffled_5" not in db.catalog and "t__corgi2_5" not in db.catalog
