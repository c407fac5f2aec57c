"""Tests for the automatic access-path planner (strategy = auto)."""

from __future__ import annotations

import pytest

from repro.data import (
    clustered_by_label,
    interleaved_by_label,
    make_binary_dense,
    make_multiclass_dense,
    make_regression,
)
from repro.db import Catalog, MiniDB
from repro.db.advisor import estimate_hd

#: Blocks whose h_D sits below this look statistically like a full shuffle.
HD_NO_SHUFFLE_THRESHOLD = 1.5


def _table(dataset, page_bytes=1024):
    return Catalog(page_bytes=page_bytes).create_table("t", dataset)


class TestChooseAccessPath:
    """The h_D probe that ``strategy = auto``'s access-path choice reads."""

    def test_shuffled_table_picks_no_shuffle(self):
        ds = make_binary_dense(2000, 10, separation=1.2, seed=0).shuffled(seed=1)
        assert estimate_hd(_table(ds), 4096).hd < HD_NO_SHUFFLE_THRESHOLD

    def test_clustered_table_picks_corgipile(self):
        ds = clustered_by_label(make_binary_dense(2000, 10, separation=1.2, seed=0))
        assert estimate_hd(_table(ds), 4096).hd > HD_NO_SHUFFLE_THRESHOLD

    def test_block_granularity_matters(self):
        # Runs of 10 identical-label tuples: at 10-tuple blocks h_D is
        # maximal; at much larger blocks the runs average out.
        ds = interleaved_by_label(
            make_binary_dense(2000, 8, separation=1.2, seed=0), run_length=10, seed=0
        )
        table = _table(ds, page_bytes=512)
        fine = estimate_hd(table, table.heap.page_bytes)
        coarse = estimate_hd(table, 64 * 1024)
        assert fine.hd > coarse.hd
        assert fine.n_blocks > coarse.n_blocks

    def test_multiclass_and_regression_probes(self):
        multi = clustered_by_label(make_multiclass_dense(900, 8, 3, separation=2.0, seed=0))
        assert estimate_hd(_table(multi), 4096).hd > HD_NO_SHUFFLE_THRESHOLD
        reg = make_regression(900, 6, seed=0)
        import numpy as np

        by_target = reg.reorder(np.argsort(reg.y), suffix="sorted")
        assert estimate_hd(_table(by_target), 4096).hd > HD_NO_SHUFFLE_THRESHOLD

    def test_prefix_probe_for_large_tables(self):
        ds = clustered_by_label(make_binary_dense(3000, 6, separation=1.0, seed=0))
        estimate = estimate_hd(_table(ds), 4096, max_probe_tuples=500)
        # Contiguous probe chunks of a clustered table are single-class:
        # still maximally clustered.
        assert estimate.n_sampled <= 500 < estimate.n_tuples
        assert estimate.hd > HD_NO_SHUFFLE_THRESHOLD


def _clustered_db():
    ds = clustered_by_label(make_binary_dense(1500, 8, separation=1.2, seed=0))
    db = MiniDB(page_bytes=1024)
    db.create_table("t", ds)
    return db


class TestAutoStrategyInEngine:
    def test_auto_resolves_and_records_decision(self):
        # On the latency-free scaled SSD curve, random block reads cost
        # the same as sequential ones, so CorgiPile's h_D reduction wins
        # outright on clustered data.
        result = _clustered_db().execute(
            "SELECT * FROM t TRAIN BY lr WITH strategy = auto, "
            "max_epoch_num = 2, block_size = 4KB, device = 'ssd-scaled'"
        )
        assert result.query.strategy == "corgipile"
        assert "h_D" in result.query.extra["planner"]
        # The full evidence table rides along as a JSON-ready doc.
        doc = result.query.extra["advisor"]
        assert doc["strategy"] == "corgipile"
        assert doc["device"] == "ssd-scaled"
        assert doc["hd"]["hd"] > HD_NO_SHUFFLE_THRESHOLD
        assert len(doc["costs"]) >= 5

    def test_auto_on_shuffled_table(self):
        ds = make_binary_dense(1500, 8, separation=1.2, seed=0).shuffled(seed=2)
        db = MiniDB(page_bytes=1024)
        db.create_table("t", ds)
        result = db.execute(
            "SELECT * FROM t TRAIN BY lr WITH strategy = auto, "
            "max_epoch_num = 2, block_size = 4KB"
        )
        assert result.query.strategy == "no_shuffle"
        assert result.timeline.system.endswith("no_shuffle")

    def test_device_override_changes_choice(self):
        """Same clustered table, same statement — only the charged device
        differs.  Seek-bound HDD stays sequential; NVM's near-free random
        reads make the shuffling strategy affordable."""
        chosen = {}
        for device in ("hdd", "nvm"):
            result = _clustered_db().execute(
                "SELECT * FROM t TRAIN BY lr WITH strategy = auto, "
                f"max_epoch_num = 2, block_size = 4KB, device = '{device}'"
            )
            chosen[device] = result.query.strategy
        assert chosen["hdd"] == "no_shuffle"
        assert chosen["nvm"] != chosen["hdd"]

    def test_unknown_device_rejected(self):
        with pytest.raises(Exception, match="device"):
            _clustered_db().execute(
                "SELECT * FROM t TRAIN BY lr WITH strategy = auto, "
                "max_epoch_num = 2, device = 'floppy'"
            )


class TestExplainAdvisor:
    """EXPLAIN renders the advisor's evidence table above the plan."""

    AUTO_SQL = (
        "EXPLAIN SELECT * FROM t TRAIN BY lr WITH strategy = auto, "
        "max_epoch_num = 2, block_size = 4KB"
    )

    def test_advisor_block_renders(self):
        plan = _clustered_db().execute(self.AUTO_SQL + ", device = 'hdd'")
        lines = plan.split("\n")
        assert lines[0].startswith("Advisor (device=hdd, h_D=")
        assert "epochs=2" in lines[0] and "buffer=" in lines[0]
        # One costed line per candidate, cheapest first, chosen marked.
        assert lines[1].startswith("  => ")
        costed = [l for l in lines if "total=" in l]
        assert len(costed) >= 5
        marked = [l for l in costed if l.startswith("  => ")]
        assert len(marked) == 1
        assert "no_shuffle" in marked[0]
        # The physical plan still follows the advisor block.
        assert any(l.startswith("SGD") for l in lines)
        assert any("Heap 't'" in l for l in lines)

    def test_explain_flips_with_device(self):
        def chosen_line(device):
            plan = _clustered_db().execute(self.AUTO_SQL + f", device = '{device}'")
            return next(l for l in plan.split("\n") if l.startswith("  => "))

        assert "no_shuffle" in chosen_line("hdd")
        assert "corgipile" in chosen_line("nvm")

    def test_explain_corgi2_mentions_offline_setup(self):
        plan = _clustered_db().execute(
            "EXPLAIN SELECT * FROM t TRAIN BY lr WITH strategy = corgi2, "
            "block_size = 4KB"
        )
        assert "Corgi² offline partial re-group" in plan
        assert "TupleShuffle" in plan

    @pytest.mark.parametrize(
        "strategy,annotation",
        [("block_reshuffle", "shuffle"), ("block_reversal", "revers")],
    )
    def test_explain_learned_block_strategies(self, strategy, annotation):
        plan = _clustered_db().execute(
            f"EXPLAIN SELECT * FROM t TRAIN BY lr WITH strategy = {strategy}, "
            "block_size = 4KB"
        )
        assert "BlockShuffle" in plan
        assert annotation in plan.lower()

    def test_explain_does_not_probe_side_effects(self):
        db = _clustered_db()
        db.execute(self.AUTO_SQL)
        assert db._models == {}
