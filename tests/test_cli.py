"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.data import make_binary_dense, write_libsvm
from repro.ml import load_model


@pytest.fixture()
def libsvm_file(tmp_path):
    ds = make_binary_dense(300, 6, separation=2.0, seed=0)
    path = tmp_path / "data.libsvm"
    write_libsvm(ds, path)
    return path


class TestInfo:
    def test_lists_datasets_and_strategies(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "higgs" in out and "criteo" in out
        assert "corgipile" in out


class TestGenerate:
    def test_generate_libsvm(self, tmp_path, capsys):
        out = tmp_path / "g.libsvm"
        assert main(["generate", "susy", "--out", str(out), "--order", "clustered"]) == 0
        assert out.exists()
        assert "6000 tuples" in capsys.readouterr().out

    def test_generate_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["generate", "higgs", "--out", str(out), "--format", "csv"]) == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("label")

    def test_generate_feature_order(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(
            ["generate", "higgs", "--out", str(out), "--format", "csv", "--order", "feature:3"]
        ) == 0
        col = np.loadtxt(out, delimiter=",", skiprows=1)[:, 3]
        assert np.all(np.diff(col) >= -1e-9)

    def test_bad_order(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "higgs", "--out", str(tmp_path / "x"), "--order", "zigzag"])


class TestTrainPredict:
    def test_train_prints_history(self, libsvm_file, capsys):
        assert main(
            ["train", "--data", str(libsvm_file), "--model", "lr",
             "--strategy", "shuffle_once", "--epochs", "3", "--block-tuples", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "epoch" in out
        assert out.count("\n") >= 5

    def test_train_saves_loadable_model(self, libsvm_file, tmp_path, capsys):
        model_path = tmp_path / "m.npz"
        assert main(
            ["train", "--data", str(libsvm_file), "--model", "svm", "--epochs", "4",
             "--block-tuples", "20", "--save-model", str(model_path)]
        ) == 0
        model = load_model(model_path)
        assert type(model).__name__ == "LinearSVM"

    def test_predict_reports_accuracy(self, libsvm_file, tmp_path, capsys):
        model_path = tmp_path / "m.npz"
        main(
            ["train", "--data", str(libsvm_file), "--model", "lr", "--epochs", "5",
             "--block-tuples", "20", "--save-model", str(model_path)]
        )
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(libsvm_file)]) == 0
        out = capsys.readouterr().out
        accuracy = float(out.split("=")[-1])
        assert accuracy > 0.9  # well-separated data

    def test_train_bundled_dataset(self, capsys):
        assert main(
            ["train", "--dataset", "epsilon", "--model", "lr", "--epochs", "2"]
        ) == 0


class TestExplainAndBench:
    def test_explain_shows_plan(self, capsys):
        assert main(["explain", "--dataset", "susy", "--strategy", "corgipile"]) == 0
        out = capsys.readouterr().out
        assert "SGD" in out and "TupleShuffle" in out and "BlockShuffle" in out

    def test_bench_io(self, capsys):
        assert main(["bench-io", "--device", "ssd"]) == 0
        out = capsys.readouterr().out
        assert "random MB/s" in out

    def test_loader_stats(self, capsys):
        import threading

        baseline = threading.active_count()
        assert (
            main(
                [
                    "loader-stats",
                    "--dataset",
                    "epsilon",
                    "--epochs",
                    "1",
                    "--workers",
                    "2",
                    "--batch-size",
                    "64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "loader observability" in out
        assert "prefetch" in out
        assert "multiworker" in out
        assert "threaded-tuple-shuffle" in out
        assert "overlap_fraction" in out
        assert threading.active_count() == baseline  # every loader thread joined


class TestCommonOptionGroup:
    """One shared --seed/--workers/--quick group, consistent everywhere."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--dataset", "susy"],
            ["parallel-train"],
            ["loader-stats"],
            ["chaos"],
            ["generate", "susy", "--out", "x"],
        ],
    )
    def test_seed_defaults_to_zero(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(argv)
        assert args.seed == 0

    def test_workers_defaults(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["train", "--dataset", "susy"]).workers == 1
        assert parser.parse_args(["parallel-train"]).workers == 2
        assert parser.parse_args(["loader-stats"]).workers == 2

    @pytest.mark.parametrize(
        "argv", [["train", "--dataset", "susy"], ["parallel-train"], ["chaos"]]
    )
    def test_quick_flag_available(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(argv + ["--quick"])
        assert args.quick is True


class TestParallelTrain:
    def test_quick_sync_with_equivalence_check(self, capsys):
        assert (
            main(
                [
                    "parallel-train",
                    "--dataset",
                    "susy",
                    "--workers",
                    "2",
                    "--quick",
                    "--epochs",
                    "2",
                    "--compare-single",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "x2 workers (sync)" in out
        assert "equivalence verdict: PASS" in out
        assert "0 live threads" in out

    def test_json_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "par.json"
        assert (
            main(
                [
                    "parallel-train",
                    "--dataset",
                    "susy",
                    "--workers",
                    "2",
                    "--mode",
                    "epoch",
                    "--quick",
                    "--epochs",
                    "1",
                    "--json",
                    str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["mode"] == "epoch"
        assert report["n_workers"] == 2
        assert report["tuples_processed"] == 1600

    def test_train_workers_routes_to_parallel_engine(self, capsys):
        assert (
            main(
                [
                    "train",
                    "--dataset",
                    "susy",
                    "--workers",
                    "2",
                    "--quick",
                    "--epochs",
                    "2",
                    "--block-tuples",
                    "40",
                ]
            )
            == 0
        )
        assert "x2 workers" in capsys.readouterr().out

    def test_train_workers_rejects_non_corgipile(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--dataset",
                    "susy",
                    "--workers",
                    "2",
                    "--strategy",
                    "no_shuffle",
                ]
            )
