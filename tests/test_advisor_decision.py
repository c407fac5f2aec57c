"""Regression + property tests for the cost-based shuffle advisor.

The regression table below pins :func:`advise_from_stats` across the
(h_D, device, buffer-fraction, epochs) grid the design doc walks through
— any cost-model change that flips a cell must update both the table and
DESIGN.md §13 deliberately.  The property tests then check the invariants
behind the table: shuffled data never pays for shuffling, the NVM "LIRS
point" flips the decision away from sort-based plans, the chosen strategy
is always the cheapest costed candidate, and the plan-time h_D probe
converges to the full-data clustering factor.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import clustered_by_label, make_binary_dense
from repro.db import Catalog
from repro.db.advisor import (
    ADVISOR_CANDIDATES,
    PENALTY_EPOCHS_PER_HD,
    AdvisorDecision,
    advise_from_stats,
    advise_strategy,
    estimate_hd,
)
from repro.db.engine import ENGINE_PROFILE
from repro.storage import DEVICE_MODELS, device_by_name
from repro.theory import hd_factor

BLOCK = 10 * 1024 * 1024
N = 1_000_000
TUPLE_BYTES = 400.0


def _advise(hd, device, buffer_fraction, epochs):
    return advise_from_stats(
        n_tuples=N,
        tuple_bytes=TUPLE_BYTES,
        hd=hd,
        device=device_by_name(device),
        block_bytes=BLOCK,
        buffer_fraction=buffer_fraction,
        epochs=epochs,
        compute=ENGINE_PROFILE,
    )


# (hd, device, buffer_fraction, epochs) -> expected strategy.  Exhaustive
# over the documented grid; every regime the advisor is supposed to
# exhibit appears at least once:
#   * hd=1: nothing beats reading in storage order, on any device;
#   * moderate clustering + a real buffer: CorgiPile everywhere;
#   * starved buffer on SSD: in-block reshuffle is all you can afford;
#   * heavy clustering: Corgi²'s offline pass amortises (short runs keep
#     it even on HDD; long HDD runs tip into a full sort);
#   * NVM: random reads ≈ sequential, so random_access wins whenever
#     clustering is non-trivial — the LIRS flip.
DECISION_TABLE = {
    # -- h_D = 1: already shuffled ------------------------------------
    (1.0, "hdd", 0.1, 20): "no_shuffle",
    (1.0, "ssd", 0.1, 20): "no_shuffle",
    (1.0, "nvm", 0.1, 20): "no_shuffle",
    (1.0, "hdd", 0.01, 5): "no_shuffle",
    (1.0, "ssd", 0.01, 5): "no_shuffle",
    (1.0, "nvm", 0.01, 5): "no_shuffle",
    # -- h_D = 2: moderate clustering ---------------------------------
    (2.0, "hdd", 0.1, 20): "corgipile",
    (2.0, "ssd", 0.1, 20): "corgipile",
    (2.0, "nvm", 0.1, 20): "corgipile",
    (2.0, "hdd", 0.01, 20): "no_shuffle",
    (2.0, "ssd", 0.01, 20): "block_reshuffle",
    (2.0, "nvm", 0.01, 20): "random_access",
    # -- h_D = 8: heavy clustering ------------------------------------
    (8.0, "hdd", 0.1, 5): "corgi2",
    (8.0, "hdd", 0.1, 20): "shuffle_once",
    (8.0, "hdd", 0.01, 20): "shuffle_once",
    (8.0, "ssd", 0.1, 5): "corgi2",
    (8.0, "ssd", 0.1, 20): "corgi2",
    (8.0, "ssd", 0.01, 5): "block_reshuffle",
    (8.0, "ssd", 0.01, 20): "shuffle_once",
    (8.0, "nvm", 0.1, 20): "random_access",
    (8.0, "nvm", 0.01, 20): "random_access",
}


class TestDecisionTable:
    @pytest.mark.parametrize(
        "hd,device,buffer_fraction,epochs,expected",
        [(k[0], k[1], k[2], k[3], v) for k, v in sorted(DECISION_TABLE.items())],
        ids=lambda v: str(v),
    )
    def test_pinned_choice(self, hd, device, buffer_fraction, epochs, expected):
        decision = _advise(hd, device, buffer_fraction, epochs)
        assert decision.strategy == expected

    def test_lirs_flip(self):
        """Same workload, only the device changes: the NVM point where
        random reads are ~free must flip the plan away from sorting."""
        on_hdd = _advise(8.0, "hdd", 0.1, 20)
        on_nvm = _advise(8.0, "nvm", 0.1, 20)
        assert on_hdd.strategy == "shuffle_once"
        assert on_nvm.strategy == "random_access"
        # On HDD, per-tuple random access is catastrophically expensive.
        hdd_ra = {c.strategy: c for c in on_hdd.costs}["random_access"]
        assert hdd_ra.total_s > 100.0 * on_hdd.chosen.total_s


class TestCostModelInvariants:
    def test_chosen_is_cheapest_and_all_candidates_costed(self):
        decision = _advise(4.0, "ssd", 0.1, 20)
        assert {c.strategy for c in decision.costs} == set(ADVISOR_CANDIDATES)
        best = min(decision.costs, key=lambda c: c.total_s)
        assert decision.chosen.total_s == best.total_s
        assert decision.strategy == decision.chosen.strategy

    def test_epoch_multiplier_formula(self):
        decision = _advise(5.0, "ssd", 0.1, 20)
        for cost in decision.costs:
            expected = 1.0 + PENALTY_EPOCHS_PER_HD * (cost.effective_hd - 1.0)
            assert cost.epoch_multiplier == pytest.approx(expected)
            assert cost.effective_hd >= 1.0

    def test_perfect_shufflers_reach_hd_one(self):
        decision = _advise(9.0, "ssd", 0.1, 20)
        by_name = {c.strategy: c for c in decision.costs}
        for name in ("shuffle_once", "random_access"):
            assert by_name[name].effective_hd == pytest.approx(1.0)
        # Residual ordering: corgi2 < corgipile < reshuffle < reversal < none.
        assert (
            by_name["corgi2"].effective_hd
            < by_name["corgipile"].effective_hd
            < by_name["block_reshuffle"].effective_hd
            < by_name["block_reversal"].effective_hd
            < by_name["no_shuffle"].effective_hd
        )
        assert by_name["no_shuffle"].effective_hd == pytest.approx(9.0)

    def test_render_and_describe(self):
        decision = _advise(8.0, "nvm", 0.1, 20)
        text = decision.render()
        assert "Advisor (device=nvm" in text
        assert "=> " in text  # the chosen-strategy marker
        assert "random_access" in text
        assert "h_D=8.00" in decision.describe()

    def test_doc_round_trip(self):
        decision = _advise(8.0, "hdd", 0.1, 20)
        doc = decision.to_doc()
        back = AdvisorDecision.from_doc(doc)
        assert back.strategy == decision.strategy
        assert back.device == decision.device
        assert back.hd.hd == pytest.approx(decision.hd.hd)
        assert len(back.costs) == len(decision.costs)
        for a, b in zip(back.costs, decision.costs):
            assert a.strategy == b.strategy
            assert a.total_s == pytest.approx(b.total_s)
        # Docs are plain JSON types all the way down (they ride the serve
        # journal and the wire protocol).
        import json

        json.dumps(doc)


class TestDecisionProperties:
    @given(
        hd=st.floats(min_value=1.0, max_value=64.0),
        device=st.sampled_from(sorted(DEVICE_MODELS)),
        buffer_fraction=st.floats(min_value=0.01, max_value=1.0),
        epochs=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_is_finite_and_choice_is_argmin(
        self, hd, device, buffer_fraction, epochs
    ):
        decision = advise_from_stats(
            n_tuples=100_000,
            tuple_bytes=TUPLE_BYTES,
            hd=hd,
            device=device_by_name(device),
            block_bytes=1024 * 1024,
            buffer_fraction=buffer_fraction,
            epochs=epochs,
            compute=ENGINE_PROFILE,
        )
        totals = [c.total_s for c in decision.costs]
        assert all(math.isfinite(t) and t > 0 for t in totals)
        assert decision.chosen.total_s == min(totals)

    @given(hd=st.floats(min_value=1.0, max_value=32.0))
    @settings(max_examples=30, deadline=None)
    def test_unclustered_never_pays_setup(self, hd):
        """At h_D=1 no strategy can beat sequential no-shuffle reads;
        and the no_shuffle cost is monotone in h_D."""
        decision = _advise(1.0, "ssd", 0.1, 20)
        assert decision.strategy == "no_shuffle"
        lo = {c.strategy: c for c in _advise(1.0, "ssd", 0.1, 20).costs}
        hi = {c.strategy: c for c in _advise(hd, "ssd", 0.1, 20).costs}
        assert hi["no_shuffle"].total_s >= lo["no_shuffle"].total_s


class TestHdProbeConvergence:
    """The plan-time sample estimate must track the full-data h_D."""

    @staticmethod
    def _table(dataset):
        return Catalog(page_bytes=1024).create_table("t", dataset)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_probe_matches_full_scan(self, seed):
        ds = clustered_by_label(
            make_binary_dense(1200, 6, separation=1.2, seed=seed), seed=seed
        )
        table = self._table(ds)
        full = estimate_hd(table, block_bytes=4096, max_probe_tuples=ds.n_tuples)
        probe = estimate_hd(table, block_bytes=4096, max_probe_tuples=400)
        assert full.n_sampled == ds.n_tuples
        assert probe.n_sampled <= 400 + 64  # chunk rounding slack
        # The sampled estimate lands within 40% of the full-scan value —
        # plenty for a decision that only needs order-of-magnitude h_D.
        assert probe.hd == pytest.approx(full.hd, rel=0.4)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_clustered_exceeds_shuffled(self, seed):
        base = make_binary_dense(1200, 6, separation=1.2, seed=seed)
        clustered = estimate_hd(
            self._table(clustered_by_label(base, seed=seed)), block_bytes=4096
        )
        shuffled = estimate_hd(
            self._table(base.shuffled(seed=seed + 1)), block_bytes=4096
        )
        assert clustered.hd > 2.0 * shuffled.hd
        assert shuffled.hd < 1.5

    def test_probe_agrees_with_theory_helper(self):
        ds = clustered_by_label(make_binary_dense(1000, 6, separation=1.5, seed=3))
        table = self._table(ds)
        est = estimate_hd(table, block_bytes=4096, max_probe_tuples=ds.n_tuples)
        assert est.tuples_per_block >= 1
        assert est.n_blocks == math.ceil(ds.n_tuples / est.tuples_per_block)
        assert 1.0 <= est.hd <= est.tuples_per_block * est.n_blocks

    def test_advise_strategy_uses_given_hd_without_probing(self):
        ds = make_binary_dense(500, 4, seed=0)
        table = self._table(ds)
        decision = advise_strategy(
            table,
            device_by_name("ssd"),
            block_bytes=4096,
            hd=7.5,
            compute=ENGINE_PROFILE,
        )
        assert decision.hd.hd == pytest.approx(7.5)
        assert decision.hd.n_sampled == 0  # marks "given, not probed"


class TestRepeatedAuto:
    """Repeating a ``strategy = auto`` TRAIN plans, and trains, the same.

    Was: each heap TRAIN fed its simulated epoch walls back into a κ fit.
    On a pool-resident table epochs 2+ are charged at memory speed, so the
    fit clamped κ to 0 and every later ``auto`` TRAIN on the table picked
    ``no_shuffle`` — test accuracy 0.497 where the first run's ``corgipile``
    reached 0.788.
    """

    SQL = (
        "SELECT * FROM t TRAIN BY svm WITH strategy = {}, max_epoch_num = 4, "
        "block_size = 64KB, seed = 0"
    )

    def test_three_auto_trains_pick_one_strategy_that_trains(self):
        from repro.db import MiniDB
        from repro.storage import HDD_SCALED

        train, test = make_binary_dense(7500, 40, separation=1.0, seed=0).split(0.8, seed=0)
        db = MiniDB(device=HDD_SCALED)
        db.create_table("t", clustered_by_label(train, seed=0))
        assert db.catalog.get("t").n_tuples == 6000
        runs = [db.execute(self.SQL.format("auto"), test=test) for _ in range(3)]
        picked = {r.query.strategy for r in runs}
        assert len(picked) == 1, picked
        reference = db.execute(self.SQL.format("corgipile"), test=test)
        for run in runs:
            assert abs(
                run.history.final.test_score - reference.history.final.test_score
            ) <= 0.02


class TestJournalledDoc:
    def test_doc_with_the_retired_kappa_key_still_loads(self):
        doc = _advise(2.0, "ssd", 0.1, 20).to_doc()
        assert "kappa" not in doc
        legacy = dict(doc, kappa={"value": 0.0, "source": "observed", "n_observations": 8})
        assert AdvisorDecision.from_doc(legacy).to_doc() == doc
