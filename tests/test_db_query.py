"""Tests for the SQL-ish query parser."""

from __future__ import annotations

import pytest

from repro.db import ParseError, PredictQuery, TrainQuery, parse_query, parse_size


class TestParseSize:
    def test_units(self):
        assert parse_size("10MB") == 10 * 1024**2
        assert parse_size("2 KB") == 2048
        assert parse_size("1GB") == 1024**3
        assert parse_size("512B") == 512

    def test_bare_integer_is_bytes(self):
        assert parse_size("4096") == 4096

    def test_fractional(self):
        assert parse_size("1.5MB") == int(1.5 * 1024**2)

    def test_invalid(self):
        with pytest.raises(ParseError):
            parse_size("ten megs")


class TestTrainQueries:
    def test_paper_example(self):
        q = parse_query(
            "SELECT * FROM forest TRAIN BY svm WITH learning_rate = 0.1, "
            "max_epoch_num = 20, block_size = 10MB"
        )
        assert isinstance(q, TrainQuery)
        assert q.table == "forest"
        assert q.model == "svm"
        assert q.learning_rate == 0.1
        assert q.max_epoch_num == 20
        assert q.block_size == 10 * 1024**2

    def test_defaults(self):
        q = parse_query("SELECT * FROM t TRAIN BY lr")
        assert q.strategy == "corgipile"
        assert q.buffer_fraction == 0.1
        assert q.batch_size == 1

    def test_strategy_and_buffer(self):
        q = parse_query(
            "SELECT * FROM t TRAIN BY lr WITH strategy = no_shuffle, buffer_fraction = 0.02"
        )
        assert q.strategy == "no_shuffle"
        assert q.buffer_fraction == 0.02

    def test_boolean_param(self):
        q = parse_query("SELECT * FROM t TRAIN BY lr WITH double_buffer = false")
        assert q.double_buffer is False

    def test_unknown_params_rejected(self):
        # A typo'd knob is an error naming it and the knobs that exist —
        # it used to land in ``query.extra`` and train with the default.
        with pytest.raises(ParseError, match="fancy_knob") as exc:
            parse_query("SELECT * FROM t TRAIN BY lr WITH fancy_knob = 3")
        assert "TrainSpec" in str(exc.value)
        assert "learning_rate" in str(exc.value) and "max_epoch_num" in str(exc.value)
        with pytest.raises(ParseError, match="learning_rat"):
            parse_query("SELECT * FROM t TRAIN BY lr WITH learning_rat = 0.5")

    def test_case_insensitive_keywords(self):
        q = parse_query("select * from t train by svm with learning_rate = 0.5")
        assert q.model == "svm"
        assert q.learning_rate == 0.5

    def test_unknown_model_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t TRAIN BY resnet50")

    def test_malformed_parameter(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t TRAIN BY lr WITH learning_rate")

    def test_bad_value_type(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t TRAIN BY lr WITH max_epoch_num = soon")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("FROBNICATE THE t TABLE")

    def test_malformed_insert_rejected(self):
        with pytest.raises(ParseError):
            parse_query("INSERT INTO t VALUES 1, 2")
        with pytest.raises(ParseError):
            parse_query("INSERT INTO t VALUES (1, x)")

    def test_int_coercion(self):
        q = parse_query("SELECT * FROM t TRAIN BY lr WITH batch_size = 128")
        assert q.batch_size == 128 and isinstance(q.batch_size, int)


class TestPredictQueries:
    def test_basic(self):
        q = parse_query("SELECT * FROM t PREDICT BY model_3")
        assert isinstance(q, PredictQuery)
        assert q.table == "t"
        assert q.model_id == "model_3"


class TestParserFuzz:
    """The parser must never crash un-cleanly on arbitrary input."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(max_size=120))
    def test_arbitrary_text_parses_or_raises_parse_error(self, text):
        from repro.db import ParseError
        from repro.db.query import parse_query

        try:
            parse_query(text)
        except ParseError:
            pass  # the only acceptable failure mode

    @settings(max_examples=40, deadline=None)
    @given(
        table=st.from_regex(r"[A-Za-z]\w{0,10}", fullmatch=True),
        lr=st.floats(1e-6, 10.0, allow_nan=False),
        epochs=st.integers(1, 500),
    )
    def test_generated_train_statements_roundtrip(self, table, lr, epochs):
        from repro.db.query import parse_query

        query = parse_query(
            f"SELECT * FROM {table} TRAIN BY svm WITH "
            f"learning_rate = {lr!r}, max_epoch_num = {epochs}"
        )
        assert query.table == table
        assert query.learning_rate == pytest.approx(lr)
        assert query.max_epoch_num == epochs


class TestParallelKnobs:
    def test_workers_and_aggregation_parse(self):
        q = parse_query(
            "SELECT * FROM t TRAIN BY lr WITH workers = 4, aggregation = 'epoch'"
        )
        assert isinstance(q, TrainQuery)
        assert q.workers == 4
        assert q.aggregation == "epoch"

    def test_defaults_stay_single_process(self):
        q = parse_query("SELECT * FROM t TRAIN BY lr")
        assert q.workers == 1
        assert q.aggregation == "sync"
