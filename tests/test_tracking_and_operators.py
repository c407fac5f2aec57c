"""Tests for Trainer callbacks, the gradient tracker, and PermutedScan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BlockLayout, clustered_by_label, make_binary_dense
from repro.db import Catalog, MiniDB, run_in_db_system
from repro.db.engine import ENGINE_PROFILE
from repro.db.operators import PermutedScanOperator
from repro.db.timing import RuntimeContext
from repro.ml import ExponentialDecay, LogisticRegression, Trainer
from repro.shuffle import ShuffleOnce
from repro.storage import HDD_SCALED, SSD
from repro.theory import GradientStatsTracker

from .conftest import pass_ids


@pytest.fixture()
def clustered_problem():
    ds = make_binary_dense(600, 8, separation=1.0, seed=0)
    return clustered_by_label(ds, seed=0)


class TestCallbacks:
    def test_callbacks_invoked_per_epoch(self, clustered_problem):
        calls = []
        Trainer(
            LogisticRegression(8),
            clustered_problem,
            ShuffleOnce(600, seed=0),
            epochs=4,
            schedule=ExponentialDecay(0.05),
            callbacks=[lambda epoch, model, record: calls.append(epoch)],
        ).run()
        assert calls == [0, 1, 2, 3]

    def test_callback_sees_live_model(self, clustered_problem):
        snapshots = []
        model = LogisticRegression(8)
        Trainer(
            model,
            clustered_problem,
            ShuffleOnce(600, seed=0),
            epochs=2,
            schedule=ExponentialDecay(0.05),
            callbacks=[lambda e, m, r: snapshots.append(m is model)],
        ).run()
        assert snapshots == [True, True]


class TestGradientStatsTracker:
    def test_tracks_every_epoch(self, clustered_problem):
        layout = BlockLayout(600, 20)
        tracker = GradientStatsTracker(clustered_problem, layout)
        Trainer(
            LogisticRegression(8),
            clustered_problem,
            ShuffleOnce(600, seed=0),
            epochs=3,
            schedule=ExponentialDecay(0.05),
            callbacks=[tracker],
        ).run()
        assert len(tracker.history) == 3
        assert tracker.final.epoch == 2
        assert all(s.sigma2 > 0 for s in tracker.history)
        assert all(1e-6 < s.hd <= layout.tuples_per_block for s in tracker.history)

    def test_hd_series_stays_above_shuffled(self, clustered_problem):
        layout = BlockLayout(600, 20)
        shuffled = clustered_problem.shuffled(seed=3)
        tracked_c = GradientStatsTracker(clustered_problem, layout)
        tracked_s = GradientStatsTracker(shuffled, layout)
        for dataset, tracker in ((clustered_problem, tracked_c), (shuffled, tracked_s)):
            Trainer(
                LogisticRegression(8), dataset, ShuffleOnce(600, seed=0),
                epochs=3, schedule=ExponentialDecay(0.05), callbacks=[tracker],
            ).run()
        assert all(
            c > s for c, s in zip(tracked_c.hd_series(), tracked_s.hd_series())
        )

    def test_empty_tracker_raises(self, clustered_problem):
        tracker = GradientStatsTracker(clustered_problem, BlockLayout(600, 20))
        with pytest.raises(ValueError):
            _ = tracker.final


class TestPermutedScan:
    @pytest.fixture()
    def table(self, clustered_problem):
        return Catalog(page_bytes=512).create_table("t", clustered_problem)

    def test_emits_permutation(self, table):
        ctx = RuntimeContext(device=SSD, compute=ENGINE_PROFILE)
        op = PermutedScanOperator(table, ctx, seed=1, charge="random_tuple")
        op.open()
        ids = pass_ids(op)
        assert sorted(ids) == list(range(table.n_tuples))
        assert ids != sorted(ids)

    def test_rescan_new_permutation(self, table):
        ctx = RuntimeContext(device=SSD, compute=ENGINE_PROFILE)
        op = PermutedScanOperator(table, ctx, seed=1, charge="sort")
        op.open()
        first = pass_ids(op)
        op.rescan()
        second = pass_ids(op)
        assert first != second
        assert sorted(first) == sorted(second)

    def test_sort_mode_charges_passes_upfront(self, table):
        ctx = RuntimeContext(device=HDD_SCALED, compute=ENGINE_PROFILE)
        op = PermutedScanOperator(table, ctx, seed=1, charge="sort")
        op.open()
        expected = PermutedScanOperator.SORT_PASSES * HDD_SCALED.sequential_time(
            float(table.heap.payload_bytes)
        )
        assert ctx.total_io_s == pytest.approx(expected, rel=1e-6)

    def test_invalid_charge_mode(self, table):
        ctx = RuntimeContext(device=SSD, compute=ENGINE_PROFILE)
        with pytest.raises(ValueError):
            PermutedScanOperator(table, ctx, charge="wishful")


class TestNewEngineStrategies:
    def test_epoch_shuffle_converges_like_shuffle_once(self, clustered_problem):
        train, test = clustered_problem.split(0.9, seed=1)
        train = clustered_by_label(train, seed=0)
        es = run_in_db_system(
            "corgipile", "epoch_shuffle", train, test, "lr", HDD_SCALED,
            epochs=5, block_size=4096,
        )
        so = run_in_db_system(
            "corgipile", "shuffle_once", train, test, "lr", HDD_SCALED,
            epochs=5, block_size=4096,
        )
        assert abs(es.history.final.test_score - so.history.final.test_score) < 0.08
        # Epoch Shuffle pays the sort every epoch; Shuffle Once only once.
        assert es.timeline.total_time_s > so.timeline.total_time_s - so.timeline.setup_s

    def test_random_access_statistically_ideal(self, clustered_problem):
        train, test = clustered_problem.split(0.9, seed=1)
        train = clustered_by_label(train, seed=0)
        ra = run_in_db_system(
            "corgipile", "random_access", train, test, "lr", HDD_SCALED,
            epochs=5, block_size=4096,
        )
        ns = run_in_db_system(
            "corgipile", "no_shuffle", train, test, "lr", HDD_SCALED,
            epochs=5, block_size=4096,
        )
        assert ra.history.final.test_score > ns.history.final.test_score

    def test_explain_covers_new_strategies(self, clustered_problem):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", clustered_problem)
        assert "PermutedScan" in db.execute(
            "EXPLAIN SELECT * FROM t TRAIN BY lr WITH strategy = epoch_shuffle"
        )
        assert "vanilla SGD" in db.execute(
            "EXPLAIN SELECT * FROM t TRAIN BY lr WITH strategy = random_access"
        )
