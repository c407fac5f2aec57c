"""End-to-end tests for the multi-process parallel training engine.

These spawn real worker processes, so configurations are kept small; the
load-bearing acceptance criteria are:

* a 2-worker sync run matches the single-process reference within 1e-6
  (it actually matches at float rounding, ~1e-16);
* killing a 4-worker run mid-epoch and resuming from the coordinator
  checkpoint finishes bit-exact (≤ 1e-12);
* no run leaks child processes, whatever the exit path.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.data.generators import make_binary_dense, make_binary_sparse
from repro.ml.models import LinearSVM, LogisticRegression
from repro.ml.schedules import ExponentialDecay
from repro.ml.trainer import CheckpointConfig
from repro.ml.trainer import TrainInterrupted
from repro.parallel import ParallelTrainer, WorkerError
from repro.storage import write_block_file

from ._oracles import sync_reference_trainer

N_TUPLES = 640
N_FEATURES = 8
TUPLES_PER_BLOCK = 20
SEED = 5
GBS = 32
SCHEDULE = ExponentialDecay(0.05)


def assert_no_leaked_children():
    leaked = [p for p in mp.active_children() if p.name.startswith("repro-parallel")]
    assert leaked == [], f"leaked worker processes: {leaked}"


@pytest.fixture(scope="module")
def dense_block_file(tmp_path_factory):
    ds = make_binary_dense(N_TUPLES, N_FEATURES, seed=0)
    path = tmp_path_factory.mktemp("parallel") / "dense.blk"
    write_block_file(ds, path, tuples_per_block=TUPLES_PER_BLOCK)
    return path


def run_sync(path, n_workers, epochs=2, **kwargs):
    model = LogisticRegression(N_FEATURES, seed=1)
    trainer = ParallelTrainer(
        path,
        model,
        n_workers=n_workers,
        mode="sync",
        epochs=epochs,
        global_batch_size=GBS,
        seed=SEED,
        schedule=SCHEDULE,
        **kwargs,
    )
    return trainer.run()


@pytest.fixture(scope="module")
def sync_run(dense_block_file):
    result = run_sync(dense_block_file, n_workers=2)
    assert_no_leaked_children()
    return result


class TestSyncMode:
    def test_matches_single_process_reference(self, dense_block_file, sync_run):
        ref_model = LogisticRegression(N_FEATURES, seed=1)
        reference = sync_reference_trainer(
            dense_block_file,
            ref_model,
            n_workers=2,
            epochs=2,
            global_batch_size=GBS,
            seed=SEED,
            schedule=SCHEDULE,
        )
        reference.run()
        diff = np.max(
            np.abs(sync_run.model.parameter_vector() - ref_model.parameter_vector())
        )
        assert diff <= 1e-6  # the CI smoke criterion; in practice ~1e-16
        assert diff <= 1e-12

    def test_result_accounting(self, sync_run):
        # 640 tuples / 2 workers / 16-per-worker batch = 20 steps per epoch.
        assert sync_run.mode == "sync"
        assert sync_run.n_workers == 2
        assert sync_run.epochs_run == 2
        assert sync_run.sync_steps == 40
        assert sync_run.tuples_processed == 2 * N_TUPLES
        assert len(sync_run.epoch_walls) == 2
        assert len(sync_run.history.records) == 2
        assert sync_run.history.final.train_score > 0.6

    def test_stats_merged_across_processes(self, sync_run):
        loader = sync_run.loader_stats
        assert loader.buffers_filled > 0
        assert loader.threads_started == loader.threads_joined == 2
        assert sync_run.storage_stats.reads_ok > 0
        assert [d["worker_id"] for d in sync_run.per_worker] == [0, 1]
        assert sum(d["tuples"] for d in sync_run.per_worker) == 2 * N_TUPLES
        report = sync_run.describe()
        assert report["plan"]["n_workers"] == 2

    def test_deterministic_given_seed(self, dense_block_file, sync_run):
        again = run_sync(dense_block_file, n_workers=2)
        assert_no_leaked_children()
        assert np.array_equal(
            again.model.parameter_vector(), sync_run.model.parameter_vector()
        )

    def test_sparse_matches_reference(self, tmp_path):
        ds = make_binary_sparse(200, 30, seed=3)
        path = tmp_path / "sparse.blk"
        write_block_file(ds, path, tuples_per_block=25)
        model = LinearSVM(30, seed=2)
        result = ParallelTrainer(
            path,
            model,
            n_workers=2,
            mode="sync",
            epochs=1,
            global_batch_size=20,
            seed=1,
            schedule=SCHEDULE,
        ).run()
        assert_no_leaked_children()
        ref_model = LinearSVM(30, seed=2)
        sync_reference_trainer(
            path,
            ref_model,
            n_workers=2,
            epochs=1,
            global_batch_size=20,
            seed=1,
            schedule=SCHEDULE,
        ).run()
        diff = np.max(
            np.abs(result.model.parameter_vector() - ref_model.parameter_vector())
        )
        assert diff <= 1e-12

    def test_sparse_step_straddling_two_fills_matches_reference(self, tmp_path):
        """16 rows a step out of 25-row fills: most steps end inside the next
        fill, so the CSR tail of one is concatenated with the head of another
        (the private re-batching this replaced raised AttributeError here)."""
        ds = make_binary_sparse(200, 30, seed=3)
        path = tmp_path / "sparse.blk"
        write_block_file(ds, path, tuples_per_block=25)
        knobs = dict(
            n_workers=2, epochs=2, global_batch_size=32, buffer_blocks=1, seed=1,
            schedule=SCHEDULE,
        )
        model, ref_model = LinearSVM(30, seed=2), LinearSVM(30, seed=2)
        result = ParallelTrainer(path, model, mode="sync", **knobs).run()
        assert_no_leaked_children()
        assert result.sync_steps == 2 * (100 // 16)
        sync_reference_trainer(path, ref_model, **knobs).run()
        diff = np.max(np.abs(model.parameter_vector() - ref_model.parameter_vector()))
        assert diff <= 1e-12


class TestCrashResume:
    def test_kill_mid_epoch_resume_bit_exact(self, dense_block_file, tmp_path):
        clean = run_sync(dense_block_file, n_workers=4, epochs=3)

        cp = CheckpointConfig(path=tmp_path / "par.ckpt", every_tuples=GBS)
        # The job seam: probed at both rendezvous of every seam, and with a
        # checkpoint after every step each step ends in one — probe 51
        # stops the run after the checkpoint of step 25, at tuple 800.
        probes = []
        with pytest.raises(TrainInterrupted):
            run_sync(
                dense_block_file, n_workers=4, epochs=3, checkpoint=cp,
                should_stop=lambda: probes.append(None) or len(probes) > 50,
            )
        assert_no_leaked_children()

        model = LogisticRegression(N_FEATURES, seed=1)
        trainer = ParallelTrainer(
            dense_block_file,
            model,
            n_workers=4,
            mode="sync",
            epochs=3,
            global_batch_size=GBS,
            seed=SEED,
            schedule=SCHEDULE,
            checkpoint=cp,
        )
        resumed = trainer.run()  # the checkpoint file exists: it resumes
        assert_no_leaked_children()

        diff = np.max(
            np.abs(resumed.model.parameter_vector() - clean.model.parameter_vector())
        )
        assert diff <= 1e-12
        # The resumed history covers all three epochs exactly once.
        assert [r.epoch for r in resumed.history.records] == [0, 1, 2]
        assert resumed.history.final.tuples_seen == 3 * N_TUPLES

    def test_resume_rejects_mismatched_topology(self, dense_block_file, tmp_path):
        cp = CheckpointConfig(path=tmp_path / "topo.ckpt", every_tuples=0)
        run_sync(dense_block_file, n_workers=2, epochs=1, checkpoint=cp)
        assert_no_leaked_children()
        model = LogisticRegression(N_FEATURES, seed=1)
        trainer = ParallelTrainer(
            dense_block_file,
            model,
            n_workers=4,
            mode="sync",
            epochs=2,
            global_batch_size=GBS,
            seed=SEED,
            schedule=SCHEDULE,
            checkpoint=cp,
        )
        with pytest.raises(ValueError, match="n_workers"):
            trainer.run()


class TestOtherModes:
    def test_epoch_mode_deterministic(self, dense_block_file):
        vecs = []
        for _ in range(2):
            model = LogisticRegression(N_FEATURES, seed=1)
            result = ParallelTrainer(
                dense_block_file,
                model,
                n_workers=2,
                mode="epoch",
                epochs=2,
                global_batch_size=GBS,
                seed=SEED,
                schedule=SCHEDULE,
            ).run()
            assert_no_leaked_children()
            assert result.tuples_processed == 2 * N_TUPLES
            assert result.history.final.train_score > 0.6
            vecs.append(result.model.parameter_vector())
        assert np.array_equal(vecs[0], vecs[1])

    def test_epoch_mode_resume_equals_the_uninterrupted_run(self, dense_block_file, tmp_path):
        def trainer(model, epochs, **kwargs):
            return ParallelTrainer(
                dense_block_file, model, n_workers=2, mode="epoch", epochs=epochs,
                global_batch_size=GBS, seed=SEED, schedule=SCHEDULE, **kwargs,
            )

        clean = LogisticRegression(N_FEATURES, seed=1)
        trainer(clean, 3).run()
        cp = CheckpointConfig(path=tmp_path / "epoch.ckpt")
        trainer(LogisticRegression(N_FEATURES, seed=1), 1, checkpoint=cp).run()
        resumed = LogisticRegression(N_FEATURES, seed=1)
        result = trainer(resumed, 3, checkpoint=cp).run()
        assert_no_leaked_children()
        np.testing.assert_array_equal(resumed.parameter_vector(), clean.parameter_vector())
        assert result.epochs_run == 2
        assert [r.epoch for r in result.history.records] == [0, 1, 2]

    def test_epoch_mode_with_empty_shards(self, tmp_path):
        # 2 blocks over 4 workers: two shards are empty every epoch; the
        # weighted model average must skip them, not dilute the update.
        ds = make_binary_dense(40, 4, seed=0)
        path = tmp_path / "tiny.blk"
        write_block_file(ds, path, tuples_per_block=20)
        model = LogisticRegression(4, seed=1)
        result = ParallelTrainer(
            path,
            model,
            n_workers=4,
            mode="epoch",
            epochs=2,
            global_batch_size=8,
            seed=0,
            schedule=SCHEDULE,
        ).run()
        assert_no_leaked_children()
        assert result.tuples_processed == 80
        assert not np.array_equal(
            result.model.parameter_vector(),
            LogisticRegression(4, seed=1).parameter_vector(),
        )


class TestFailurePaths:
    def test_worker_error_propagates_and_children_reaped(
        self, tmp_path, dense_block_file
    ):
        # Build the trainer while the data file exists, then pull the file
        # out from under the workers: every worker fails to open its
        # reader, the barrier aborts, and the coordinator reports the
        # worker's traceback instead of deadlocking.
        import shutil

        path = tmp_path / "vanishing.blk"
        shutil.copy(dense_block_file, path)
        shutil.copy(str(dense_block_file) + ".index.json", str(path) + ".index.json")
        model = LogisticRegression(N_FEATURES, seed=1)
        trainer = ParallelTrainer(
            path,
            model,
            n_workers=2,
            mode="sync",
            epochs=1,
            global_batch_size=GBS,
            seed=SEED,
            schedule=SCHEDULE,
        )
        path.unlink()
        with pytest.raises(WorkerError, match="worker"):
            trainer.run()
        assert_no_leaked_children()

    def test_mode_validation(self, dense_block_file):
        model = LogisticRegression(N_FEATURES, seed=1)
        with pytest.raises(ValueError, match="unknown mode"):
            ParallelTrainer(dense_block_file, model, n_workers=2, mode="gossip")
        with pytest.raises(ValueError, match="divisible"):
            ParallelTrainer(
                dense_block_file, model, n_workers=3, mode="sync", global_batch_size=32
            )
