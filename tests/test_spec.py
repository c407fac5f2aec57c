"""The typed TrainSpec API: validation, grids, docs.

A TRAIN statement is one :class:`TrainSpec` at every entry point — the
parser builds it, and the engine, serve jobs and the CLI consume it — so
these tests pin the contract: bad knobs fail loudly with
:class:`SpecError`, the canonical document round-trips, every spelling of
one statement yields an equal spec, and ``extra`` is the engine's output
channel only.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _train_spec, build_parser, main
from repro.db import MiniDB, ParseError, parse_query
from repro.db.errors import SpecError
from repro.db.plan import STRATEGIES
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

    @pytest.mark.parametrize("aggregation", ["epoch"])
    def test_aggregation_without_workers_is_refused(self, aggregation, dense_binary):
        """An aggregation mode needs workers to aggregate: with one process it
        cannot apply, so it is refused, not silently run as single-process SGD."""
        want = (
            f"aggregation = {aggregation!r} requires data-parallel workers "
            "(workers > 1); got workers = 1"
        )
        with pytest.raises(SpecError) as exc:
            TrainSpec(table="t", model="lr", aggregation=aggregation)
        assert str(exc.value) == want
        assert TrainSpec(table="t", model="lr", workers=2, aggregation=aggregation).workers == 2

        db = MiniDB(page_bytes=1024)
        db.create_table("t", dense_binary)
        with pytest.raises(SpecError, match=re.escape(want)):
            db.execute(f"SELECT * FROM t TRAIN BY lr WITH aggregation = '{aggregation}'")
        assert db.model_ids() == []

        argv = ["train", "--dataset", "higgs", "--aggregation", aggregation]
        with pytest.raises(SpecError, match=re.escape(want)):
            _train_spec(build_parser().parse_args(argv), "t", TUPLE_BYTES)
        with pytest.raises(SystemExit, match=re.escape(f"train: {want}")):
            main(argv + ["--quick"])

    def test_aggregation_modes_pinned(self):
        # Two definitions on purpose (see repro.db.spec): drift fails here.
        import repro.parallel

        assert set(AGGREGATION_MODES) == set(repro.parallel.AGGREGATION_MODES)
        assert len(AGGREGATION_MODES) == len(repro.parallel.AGGREGATION_MODES) == 2

    def test_async_aggregation_is_refused_naming_what_is_left(self, dense_binary, capsys):
        """Hogwild ``async`` raced by design, so it could not replay; the
        spec, SQL and the CLI refuse it and name the modes that are left."""
        want = "unknown aggregation 'async'; supported: sync | epoch"
        with pytest.raises(SpecError, match=re.escape(want)):
            TrainSpec(table="t", model="lr", workers=2, aggregation="async")
        db = MiniDB(page_bytes=1024)
        db.create_table("t", dense_binary)
        with pytest.raises(SpecError, match=re.escape(want)):
            db.execute("SELECT * FROM t TRAIN BY lr WITH workers = 2, aggregation = 'async'")
        argv = ["train", "--dataset", "higgs", "--workers", "2", "--aggregation", "async"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "invalid choice: 'async' (choose from 'sync', 'epoch')" in capsys.readouterr().err


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
# The parsed statement / documents
# ----------------------------------------------------------------------


GRID_SQL = (
    "SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 4, learning_rate = 0.2, "
    "l2 = 0.001, seed = 7, grid = (lr = 0.1 | 0.01)"
)


class TestTrainSpecFromQuery:
    def test_sql_parse_builds_full_spec(self):
        spec = parse_query(GRID_SQL)
        assert isinstance(spec, TrainSpec)
        assert spec.table == "t"
        assert spec.model == "svm"
        assert spec.epochs == 4
        assert spec.lr == 0.2
        assert spec.l2 == 0.001
        assert spec.seed == 7
        assert spec.grid is not None and spec.grid.n_configs == 2

    def test_doc_round_trip(self):
        spec = parse_query(GRID_SQL)
        doc = spec.to_doc()
        assert doc["version"] == 1
        assert TrainSpec.from_doc(doc) == spec

    def test_where_doc_round_trip(self):
        spec = parse_query(
            "SELECT * FROM t WHERE f0 >= 0.5 AND f1 < 2 TRAIN BY lr "
            "WITH max_epoch_num = 2"
        )
        clone = TrainSpec.from_doc(spec.to_doc())
        assert clone.where is not None
        assert clone.where.render() == spec.where.render()

    def test_invalid_sql_knob_fails_loudly(self):
        with pytest.raises(SpecError, match="epochs"):
            parse_query("SELECT * FROM t TRAIN BY lr WITH max_epoch_num = -1")


#: The parent's message for a WITH key that is no knob, verbatim: the SQL
#: spelling of the two renamed fields is part of the statement surface.
UNKNOWN_LR = (
    "unknown TRAIN knob 'lr'; WITH takes the typed fields of "
    "repro.db.spec.TrainSpec, spelled: aggregation, batch_size, block_size, "
    "buffer_fraction, decay, device, grid, l2, "
    "learning_rate, max_epoch_num, seed, strategy, warm_start, workers"
)

#: Tuple size the CLI test turns ``--block-tuples`` into ``block_size`` with.
TUPLE_BYTES = 64.0


def _sql_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def statements(draw):
    """``(model, knobs, where, grid)``: every WITH knob of one statement, as
    ``{sql_key: value}`` (``None`` leaves the knob out)."""
    grid = draw(st.none() | st.sampled_from(["lr = 0.1 | 0.01", "decay = 0.9 | 0.5, l2 = 0 | 0.0001"]))
    where = None if grid else draw(st.none() | st.sampled_from(["f0 >= 0.5", "label = 1 AND f2 < 3"]))
    unit = st.floats(0.001, 1.0, allow_nan=False)
    workers = draw(st.integers(1, 8))
    knobs = {
        "strategy": draw(st.sampled_from(STRATEGIES)),
        "max_epoch_num": draw(st.integers(1, 500)),
        "learning_rate": draw(st.floats(1e-6, 10.0, allow_nan=False)),
        "decay": draw(unit),
        "l2": draw(st.none() | st.floats(0.0, 1.0, allow_nan=False)),
        "batch_size": 1 if grid else draw(st.integers(1, 256)),
        "block_tuples": draw(st.integers(1, 10**5)),
        "buffer_fraction": draw(unit),
        "seed": draw(st.integers(0, 2**31)),
        "workers": workers,
        # epoch / async aggregation needs workers > 1 (a SpecError otherwise)
        "aggregation": draw(st.sampled_from(AGGREGATION_MODES)) if workers > 1 else "sync",
        "device": draw(st.none() | st.sampled_from(["hdd", "ssd", "nvm"])),
        "warm_start": None if grid else draw(st.none() | st.just("model_3")),
    }
    return draw(st.sampled_from(["lr", "svm", "linreg", "softmax"])), knobs, where, grid


def _statement(model: str, knobs: dict, where, grid) -> str:
    knobs = dict(knobs)
    # The CLI's one block-size flag counts tuples; SQL spells bytes.
    knobs["block_size"] = max(4096, int(knobs.pop("block_tuples") * TUPLE_BYTES))
    text = ", ".join(f"{k} = {_sql_value(v)}" for k, v in knobs.items() if v is not None)
    if grid:
        text += f", grid = ({grid})"
    return f"SELECT * FROM t{f' WHERE {where}' if where else ''} TRAIN BY {model} WITH {text}"


class TestOneStatementObject:
    """Every entry point that spells one statement yields one equal spec."""

    @settings(max_examples=60, deadline=None)
    @given(statements())
    def test_sql_explain_doc_and_cli_agree(self, drawn):
        model, knobs, where, grid = drawn
        sql = _statement(model, knobs, where, grid)
        spec = parse_query(sql)
        assert isinstance(spec, TrainSpec)
        assert parse_query("EXPLAIN " + sql).inner == spec
        assert TrainSpec.from_doc(json.loads(json.dumps(spec.to_doc()))) == spec
        assert spec.lr == knobs["learning_rate"] and spec.epochs == knobs["max_epoch_num"]

        # The CLI has flags for a subset of the knobs.
        flags = {
            "strategy": "--strategy", "max_epoch_num": "--epochs",
            "learning_rate": "--lr", "decay": "--decay", "batch_size": "--batch-size",
            "buffer_fraction": "--buffer-fraction", "block_tuples": "--block-tuples",
            "seed": "--seed", "workers": "--workers",
        }
        argv = ["train", "--dataset", "higgs", "--model", model]
        for key, flag in flags.items():
            argv += [flag, _sql_value(knobs[key])]
        argv += ["--where", where] if where else []
        argv += ["--grid", grid] if grid else []
        cli_spec = _train_spec(build_parser().parse_args(argv), "t", TUPLE_BYTES)
        cli_knobs = {key: knobs[key] for key in flags}
        assert cli_spec == parse_query(_statement(model, cli_knobs, where, grid))

        for field_name, sql_key in (("lr", "learning_rate"), ("epochs", "max_epoch_num")):
            renamed = sql.replace(f" {sql_key} =", f" {field_name} =")
            with pytest.raises(ParseError, match=f"unknown TRAIN knob {field_name!r}"):
                parse_query(renamed)

    def test_unknown_knob_message_is_unchanged(self):
        with pytest.raises(ParseError) as exc:
            parse_query("SELECT * FROM t TRAIN BY lr WITH lr = 0.1")
        assert str(exc.value) == UNKNOWN_LR


class TestExtraIsOutputOnly:
    """``extra`` is what the engine writes on the spec it returns: never a
    constructor argument, never part of equality or the document."""

    @pytest.mark.parametrize(
        "key,value",
        [
            ("warm_start", "model_1"),
            ("device", "hdd"),
            ("l2", 0.01),
            ("grid", {"lr": [0.1, 0.01]}),
        ],
    )
    def test_input_key_in_extra_is_refused(self, key, value):
        with pytest.raises(TypeError, match="extra"):
            TrainSpec(table="t", model="lr", extra={key: value})

    def test_engine_rejects_before_training(self, dense_binary):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", dense_binary)
        with pytest.raises(SpecError, match="aggregation"):
            db.execute("SELECT * FROM t TRAIN BY lr WITH aggregation = 'gossip'")
        assert db.model_ids() == []

    def test_engine_output_keys_in_extra_are_left_alone(self, dense_binary):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", dense_binary)
        spec = parse_query("SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 1")
        result = db.train(spec)
        assert set(result.query.extra) >= {"plan", "advisor"}
        assert spec.extra == {}  # the caller's statement is not written to
        assert result.query == spec and result.query.to_doc() == spec.to_doc()
        assert "extra" not in spec.to_doc()
        assert replace(result.query).extra == {}
