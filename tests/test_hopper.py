"""Model-hopper parallelism: schedule invariants, bit-exactness, resume.

The hopper's whole correctness story is one sentence — every model walks
the identical ``(epoch, shard)`` stream a solo run walks, just shifted in
time — so these tests pin (a) the schedule algebra that makes that true,
(b) bit-exact equality between the multi-process engine, the in-process
reference, and per-config solo runs, and (c) crash+resume landing on the
same bits, including through the SQL ``TRAIN ... WITH grid`` surface.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_binary_dense
from repro.db import MiniDB, parse_query
from repro.db.engine import GridTrainResult
from repro.ml import LogisticRegression
from repro.parallel import HopperEngine, HopperSchedule
from repro.storage import write_block_file

from ._oracles import run_hopper_inprocess


# ----------------------------------------------------------------------
# Schedule algebra
# ----------------------------------------------------------------------


class TestHopperSchedule:
    def test_pipeline_shape(self):
        sch = HopperSchedule(4, 4, 3)
        assert sch.stream_length == 12
        assert sch.total_slots == 15  # E*P + S - 1
        assert sch.bubble_ratio == pytest.approx(15 / 12)

    def test_every_model_walks_the_canonical_stream(self):
        sch = HopperSchedule(3, 4, 2)
        canonical = [(e, w) for e in range(2) for w in range(4)]
        for m in range(3):
            assert sch.visits(m) == canonical

    def test_no_worker_hosts_two_models_in_a_slot(self):
        sch = HopperSchedule(4, 4, 3)
        for t in range(sch.total_slots):
            hosts = {}
            for w in range(sch.n_workers):
                m = sch.model_at(w, t)
                if m is not None:
                    assert m not in hosts, f"model {m} on two workers at slot {t}"
                    hosts[m] = w

    def test_more_models_than_workers_rejected(self):
        with pytest.raises(ValueError, match="collision-free"):
            HopperSchedule(5, 4, 3)

    def test_epoch_completions_in_order(self):
        sch = HopperSchedule(2, 3, 2)
        completions = [
            (t, m, sch.completes_epoch(m, t))
            for t in range(sch.total_slots)
            for m in range(2)
            if sch.completes_epoch(m, t) is not None
        ]
        # Each model completes each epoch exactly once, epochs in order,
        # model m one slot after model m-1.
        for m in range(2):
            mine = [(t, e) for t, mm, e in completions if mm == m]
            assert [e for _, e in mine] == [0, 1]
            for t, e in mine:
                assert t == (e + 1) * sch.n_workers - 1 + m


@settings(max_examples=60, deadline=None)
@given(
    n_workers=st.integers(1, 8),
    extra_workers=st.integers(0, 4),
    epochs=st.integers(1, 5),
    data=st.data(),
)
def test_property_hopper_visit_coverage(n_workers, extra_workers, epochs, data):
    """Every model visits every (epoch, shard) pair exactly once, in
    canonical order, and no two models share a shard within a slot."""
    P = n_workers + extra_workers
    S = data.draw(st.integers(1, P))
    sch = HopperSchedule(S, P, epochs)
    canonical = [(e, w) for e in range(epochs) for w in range(P)]
    seen_by_slot: dict[int, set[int]] = {}
    for m in range(S):
        visits = sch.visits(m)
        assert visits == canonical
        assert len(set(visits)) == epochs * P  # each pair exactly once
    for t in range(sch.total_slots):
        active = [sch.model_at(w, t) for w in range(P)]
        models = [m for m in active if m is not None]
        assert len(models) == len(set(models))
        seen_by_slot[t] = set(models)
    # Work conservation: total active units == S * E * P.
    assert sum(len(v) for v in seen_by_slot.values()) == S * epochs * P


# ----------------------------------------------------------------------
# Bit-exact execution
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def block_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("hopper") / "hopper.blocks"
    dataset = make_binary_dense(320, 8, seed=0)
    write_block_file(dataset, path, 20)
    return path


_KW = dict(
    lrs=[0.1, 0.05, 0.1, 0.05],
    decays=[0.95, 0.95, 0.9, 0.9],
    epochs=3,
    n_workers=4,
    buffer_blocks=2,
    seed=5,
)


def _models():
    return [LogisticRegression(8, seed=1) for _ in range(4)]


class TestHopperEngine:
    def test_multiprocess_matches_inprocess_and_solo(self, block_file):
        result = HopperEngine(block_file, _models(), **_KW).run()
        assert result.slots_run == 15
        assert result.tuples_processed == 4 * 3 * 320

        ref = run_hopper_inprocess(block_file, _models(), **_KW)
        for mp_model, ref_model in zip(result.models, ref):
            assert np.array_equal(
                mp_model.parameter_vector(), ref_model.parameter_vector()
            )

        # Each grid config is bit-identical to training it alone: the
        # hopper only reorders when work happens, never what it computes.
        for i in range(4):
            solo = run_hopper_inprocess(
                block_file,
                [LogisticRegression(8, seed=1)],
                lrs=[_KW["lrs"][i]],
                decays=[_KW["decays"][i]],
                epochs=3,
                n_workers=4,
                buffer_blocks=2,
                seed=5,
            )
            assert np.array_equal(
                result.models[i].parameter_vector(), solo[0].parameter_vector()
            )

    def test_leaderboard_ranked_and_deterministic(self, block_file):
        first = HopperEngine(block_file, _models(), **_KW).run()
        second = HopperEngine(block_file, _models(), **_KW).run()
        lb1, lb2 = first.leaderboard(), second.leaderboard()
        assert [r["rank"] for r in lb1] == [0, 1, 2, 3]
        losses = [r["final_train_loss"] for r in lb1]
        assert losses == sorted(losses)
        # Same seed, same bits, same leaderboard — run to run.
        for a, b in zip(lb1, lb2):
            assert a["config"] == b["config"]
            assert a["final_train_loss"] == b["final_train_loss"]
        for m1, m2 in zip(first.models, second.models):
            assert np.array_equal(m1.parameter_vector(), m2.parameter_vector())

    def test_kill_and_resume_bit_exact(self, block_file, tmp_path):
        class Boom(Exception):
            pass

        full = HopperEngine(block_file, _models(), **_KW).run()

        ckpt = tmp_path / "grid.ckpt.npz"

        def killer(slot, _doc):
            if slot == 6:
                raise Boom()

        with pytest.raises(Boom):
            HopperEngine(
                block_file, _models(), checkpoint_path=ckpt, on_slot=killer, **_KW
            ).run()
        assert ckpt.exists()

        resumed = HopperEngine(
            block_file, _models(), checkpoint_path=ckpt, **_KW
        ).run()
        assert resumed.slots_run < 15  # picked up mid-schedule
        for a, b in zip(full.models, resumed.models):
            assert np.array_equal(a.parameter_vector(), b.parameter_vector())
        for hf, hr in zip(full.histories, resumed.histories):
            assert len(hf.records) == len(hr.records) == 3
            for ra, rb in zip(hf.records, hr.records):
                assert ra.train_loss == rb.train_loss

    def test_resume_with_another_grid_is_refused(self, block_file, tmp_path):
        """The slab holds one model per config: resumed under permuted
        learning rates, each row would continue under another config's lr."""

        class Boom(Exception):
            pass

        ckpt = tmp_path / "grid.ckpt.npz"

        def killer(slot, _doc):
            if slot == 6:
                raise Boom()

        with pytest.raises(Boom):
            HopperEngine(
                block_file, _models(), checkpoint_path=ckpt, on_slot=killer, **_KW
            ).run()
        permuted = {**_KW, "lrs": _KW["lrs"][::-1]}
        assert permuted["lrs"] != _KW["lrs"]
        with pytest.raises(ValueError, match="checkpoint was taken with lrs="):
            HopperEngine(block_file, _models(), checkpoint_path=ckpt, **permuted).run()


# ----------------------------------------------------------------------
# The SQL surface
# ----------------------------------------------------------------------


GRID_SQL = (
    "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 8KB, "
    "buffer_fraction = 0.2, seed = 3, grid = (lr = 0.1 | 0.01, l2 = 0 | 0.0001)"
)


class TestGridTrain:
    @pytest.fixture()
    def db(self, dense_binary):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", dense_binary)
        return db

    def test_grid_train_leaderboard(self, db):
        result = db.execute(GRID_SQL)
        assert isinstance(result, GridTrainResult)
        assert len(result.leaderboard) == 4
        assert [r["rank"] for r in result.leaderboard] == [0, 1, 2, 3]
        labels = {r["label"] for r in result.leaderboard}
        assert labels == {
            "lr=0.1, l2=0",
            "lr=0.1, l2=0.0001",
            "lr=0.01, l2=0",
            "lr=0.01, l2=0.0001",
        }
        # Every config's model is registered and addressable.
        for row in result.leaderboard:
            assert row["model_id"] == f"grid_{row['config']}"
            model = db.get_model(row["model_id"])
            assert model.parameter_vector().size > 0
        # The winner is the returned model.
        best = db.get_model(result.leaderboard[0]["model_id"])
        assert np.array_equal(best.parameter_vector(), result.model.parameter_vector())
        assert result.query.extra["hopper"]["schedule"]["n_models"] == 4
        assert result.query.extra["grid"]["n_configs"] == 4

    def test_grid_config_bit_identical_to_solo_train(self, db, dense_binary):
        result = db.execute(GRID_SQL)
        for row in result.leaderboard:
            solo_db = MiniDB(page_bytes=1024)
            solo_db.create_table("t", dense_binary)
            lr, l2 = row["values"]["lr"], row["values"]["l2"]
            # workers pinned to the grid's P: the shard layout (hence the
            # tuple stream) depends on it, and bit-exactness is per-stream.
            solo = solo_db.execute(
                "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, "
                "block_size = 8KB, buffer_fraction = 0.2, seed = 3, "
                f"workers = 4, grid = (lr = {lr}, l2 = {l2})"
            )
            assert np.array_equal(
                db.get_model(row["model_id"]).parameter_vector(),
                solo.model.parameter_vector(),
            )

    def test_grid_rejects_where(self, db):
        where = parse_query(
            "SELECT * FROM t WHERE f0 >= 0 TRAIN BY lr WITH max_epoch_num = 1"
        ).where
        with pytest.raises(Exception, match="grid"):
            db.train(replace(parse_query(GRID_SQL), where=where))

    def test_explain_shows_hop_schedule(self, db):
        plan = db.explain(parse_query(GRID_SQL))
        assert "ModelHopper" in plan
        assert "4 models x 4 shard workers" in plan
        assert "slot   0" in plan
