"""Tests for the benchmark harness utilities (reporting + runners)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    format_curve,
    format_table,
    history_row,
    run_convergence_sweep,
    save_records,
)
from repro.data import clustered_by_label, make_binary_dense
from repro.ml import LogisticRegression


class TestFormatTable:
    def test_basic_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        text = format_table(rows, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5
        # All data lines have equal width.
        assert len(set(len(line) for line in lines[2:])) <= 2

    def test_column_selection_and_missing(self):
        rows = [{"a": 1}]
        text = format_table(rows, columns=["a", "z"])
        assert "z" in text

    def test_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_float_formatting(self):
        rows = [{"v": 0.123456}, {"v": 1.2e-7}, {"v": 12345.6}, {"v": 0.0}]
        text = format_table(rows)
        assert "0.1235" in text
        assert "1.200e-07" in text
        assert "1.235e+04" in text

    def test_curve_rendering(self):
        text = format_curve("name", [0.1, 0.5, 0.9])
        assert text.startswith("name")
        assert "0.9000" in text

    def test_curve_empty(self):
        assert "(empty)" in format_curve("x", [])

    def test_curve_constant_series(self):
        # Zero span must not divide by zero.
        text = format_curve("flat", [0.5, 0.5, 0.5])
        assert "0.5000" in text


class TestSaveRecords:
    def test_creates_directories_and_valid_json(self, tmp_path):
        target = tmp_path / "nested" / "out.json"
        path = save_records([{"x": 1}], target)
        assert path.exists()
        assert json.loads(path.read_text()) == [{"x": 1}]

    def test_non_serialisable_values_stringified(self, tmp_path):
        class Odd:
            def __str__(self):
                return "odd!"

        path = save_records([{"x": Odd()}], tmp_path / "o.json")
        assert json.loads(path.read_text()) == [{"x": "odd!"}]


class TestRunners:
    @pytest.fixture(scope="class")
    def sweep(self):
        ds = make_binary_dense(400, 6, separation=1.5, seed=0)
        train, test = ds.split(0.8, seed=1)
        return run_convergence_sweep(
            clustered_by_label(train, seed=0),
            test,
            lambda: LogisticRegression(6),
            ("shuffle_once", "no_shuffle"),
            epochs=4,
            learning_rate=0.1,
            tuples_per_block=20,
            seed=0,
        )

    def test_histories_per_strategy(self, sweep):
        assert set(sweep.histories) == {"shuffle_once", "no_shuffle"}
        assert all(h.epochs == 4 for h in sweep.histories.values())

    def test_final_and_converged_scores(self, sweep):
        finals = sweep.final_scores()
        converged = sweep.converged_scores(tail=2)
        assert set(finals) == set(converged)
        assert all(0.0 <= v <= 1.0 for v in finals.values())

    def test_rows_shape(self, sweep):
        rows = sweep.rows()
        assert len(rows) == 2
        assert {"dataset", "model", "strategy", "epochs", "test_acc"} <= set(rows[0])

    def test_history_row_without_test(self):
        from repro.ml.trainer import ConvergenceHistory, EpochRecord

        history = ConvergenceHistory("s", "m")
        history.append(EpochRecord(0, 0.1, 1.0, 0.5, None, 10))
        row = history_row("d", "m", "s", history)
        assert row["test_acc"] is None

    def test_fresh_model_per_strategy(self, sweep):
        # Each strategy trains its own model from the same zero init: both
        # improve on the log(2) starting loss, and their loss trajectories
        # differ (they saw different orders).
        import math

        losses = {name: h.train_losses for name, h in sweep.histories.items()}
        assert all(seq[-1] < math.log(2) for seq in losses.values())
        assert losses["shuffle_once"] != losses["no_shuffle"]
