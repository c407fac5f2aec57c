"""The typed TrainSpec API: validation, grids, docs.

Every TRAIN entry point (engine, serve jobs, CLI) funnels through
``TrainSpec.from_query`` — so these tests pin the contract: bad knobs fail
loudly with :class:`SpecError`, the canonical document round-trips, and
``extra={...}`` is the engine's output channel only.
"""

from __future__ import annotations

import pytest

from repro.db import MiniDB, parse_query
from repro.db.errors import SpecError
from repro.db.query import TrainQuery
from repro.db.spec import AGGREGATION_MODES, GridConfig, GridSpec, TrainSpec


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


class TestTrainSpecValidation:
    def test_defaults_validate(self):
        spec = TrainSpec(table="t", model="lr")
        assert spec.strategy == "corgipile"
        assert spec.epochs == 20
        assert spec.l2 is None

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"table": ""}, "table"),
            ({"model": "nope"}, "unknown model"),
            ({"epochs": 0}, "epochs"),
            ({"epochs": -3}, "epochs"),
            ({"lr": 0.0}, "lr"),
            ({"decay": -1}, "decay"),
            ({"l2": -0.5}, "l2"),
            ({"batch_size": 0}, "batch_size"),
            ({"buffer_fraction": 0.0}, "buffer_fraction"),
            ({"buffer_fraction": 1.5}, "buffer_fraction"),
            ({"workers": 0}, "workers"),
            ({"aggregation": "gossip"}, "aggregation"),
            ({"warm_start": ""}, "warm_start"),
        ],
    )
    def test_bad_values_raise(self, kwargs, match):
        base = {"table": "t", "model": "lr"}
        base.update(kwargs)
        with pytest.raises(SpecError, match=match):
            TrainSpec(**base)

    def test_grid_constraints(self):
        grid = GridSpec.from_axes({"lr": [0.1, 0.01]})
        with pytest.raises(SpecError, match="batch_size"):
            TrainSpec(table="t", model="lr", grid=grid, batch_size=8)
        with pytest.raises(SpecError, match="warm_start"):
            TrainSpec(table="t", model="lr", grid=grid, warm_start="m0")

    def test_aggregation_modes_pinned(self):
        # Two definitions on purpose (see repro.db.spec): drift fails here.
        import repro.parallel

        assert set(AGGREGATION_MODES) == set(repro.parallel.AGGREGATION_MODES)
        assert len(AGGREGATION_MODES) == len(repro.parallel.AGGREGATION_MODES) == 3


class TestGridSpec:
    def test_cartesian_product_in_declaration_order(self):
        grid = GridSpec.from_axes({"lr": [0.1, 0.01], "l2": [0.0, 1e-4]})
        assert grid.n_configs == 4
        configs = grid.configs()
        assert [c.model_id for c in configs] == [f"grid_{i}" for i in range(4)]
        assert configs[0].overrides == (("lr", 0.1), ("l2", 0.0))
        assert configs[3].overrides == (("lr", 0.01), ("l2", 1e-4))

    def test_learning_rate_alias(self):
        grid = GridSpec.from_axes({"learning_rate": [0.1]})
        assert grid.axes[0][0] == "lr"

    def test_resolve_overlays_base_spec(self):
        spec = TrainSpec(table="t", model="lr", lr=0.5, decay=0.9)
        config = GridConfig(index=0, overrides=(("lr", 0.05),))
        resolved = config.resolve(spec)
        assert resolved == {"lr": 0.05, "decay": 0.9, "l2": None}

    @pytest.mark.parametrize(
        "axes, match",
        [
            ({}, "no axes"),
            ({"epochs": [1, 2]}, "not sweepable"),
            ({"lr": []}, "no values"),
            ({"lr": [0.0]}, "positive"),
            ({"l2": [-1.0]}, ">= 0"),
        ],
    )
    def test_bad_axes_raise(self, axes, match):
        with pytest.raises(SpecError, match=match):
            GridSpec.from_axes(axes)

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SpecError, match="twice"):
            GridSpec(axes=(("lr", (0.1,)), ("lr", (0.2,))))

    def test_doc_round_trip(self):
        grid = GridSpec.from_axes({"lr": [0.1, 0.01], "decay": [0.9]})
        assert GridSpec.from_doc(grid.to_doc()) == grid


# ----------------------------------------------------------------------
# from_query / documents
# ----------------------------------------------------------------------


GRID_SQL = (
    "SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 4, learning_rate = 0.2, "
    "l2 = 0.001, seed = 7, grid = (lr = 0.1 | 0.01)"
)


class TestTrainSpecFromQuery:
    def test_sql_parse_builds_full_spec(self):
        spec = TrainSpec.from_query(parse_query(GRID_SQL))
        assert spec.table == "t"
        assert spec.model == "svm"
        assert spec.epochs == 4
        assert spec.lr == 0.2
        assert spec.l2 == 0.001
        assert spec.seed == 7
        assert spec.grid is not None and spec.grid.n_configs == 2

    def test_doc_round_trip(self):
        spec = TrainSpec.from_query(parse_query(GRID_SQL))
        doc = spec.to_doc()
        assert doc["version"] == 1
        assert TrainSpec.from_doc(doc) == spec

    def test_where_doc_round_trip(self):
        query = parse_query(
            "SELECT * FROM t WHERE f0 >= 0.5 AND f1 < 2 TRAIN BY lr "
            "WITH max_epoch_num = 2"
        )
        spec = TrainSpec.from_query(query)
        clone = TrainSpec.from_doc(spec.to_doc())
        assert clone.where is not None
        assert clone.where.render() == spec.where.render()

    def test_invalid_sql_knob_fails_loudly(self):
        query = parse_query("SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2")
        query.max_epoch_num = -1
        with pytest.raises(SpecError, match="epochs"):
            TrainSpec.from_query(query)


class TestExtraIsOutputOnly:
    """The PR 10 ``extra={...}`` input shim is gone: an input knob left in
    ``extra`` is an error naming the typed field, never silently ignored."""

    @pytest.mark.parametrize(
        "key,value",
        [
            ("warm_start", "model_1"),
            ("device", "hdd"),
            ("l2", 0.01),
            ("grid", {"lr": [0.1, 0.01]}),
        ],
    )
    def test_input_key_in_extra_is_a_spec_error(self, key, value):
        query = TrainQuery(table="t", model="lr", extra={key: value})
        with pytest.raises(SpecError, match=f"TrainQuery.{key}"):
            TrainSpec.from_query(query)

    def test_engine_rejects_before_training(self, dense_binary):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", dense_binary)
        query = TrainQuery(table="t", model="lr", extra={"device": "hdd"})
        with pytest.raises(SpecError, match="device"):
            db.train(query)
        assert db.model_ids() == []

    def test_engine_output_keys_in_extra_are_left_alone(self):
        query = TrainQuery(table="t", model="lr", extra={"planner": "x", "where": {}})
        assert TrainSpec.from_query(query).table == "t"
