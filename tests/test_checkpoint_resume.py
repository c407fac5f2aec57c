"""Crash-safe checkpoint/resume: killed runs finish with identical weights.

A run killed at a randomized tuple N and run again over the same checkpoint
— which resumes it, the file existing — must produce final weights within 1e-12 of the
uninterrupted run — per-tuple and mini-batch, dense and sparse data,
across ≥3 seeds.  The comparison baseline runs with the *same* checkpoint
cadence, because the per-tuple kernels flush their lazy L2 scaling at chunk
boundaries (cadence is part of the numeric contract; see
``CheckpointConfig``).  ``CHAOS_SEED`` shifts the seed set per CI job.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import CorgiPileShuffle
from repro.data import BlockLayout, make_binary_dense, make_binary_sparse
from repro.faults import InjectedCrash
from repro.ml import (
    Adam,
    CheckpointConfig,
    LogisticRegression,
    Trainer,
    load_checkpoint,
    save_checkpoint,
)
from repro.shuffle import EpochShuffle

from .conftest import killed_at_tuple

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
SEEDS = [CHAOS_SEED * 3 + k for k in range(3)]

N_TUPLES = 300
EPOCHS = 3
CADENCE = 64


def _dataset(sparse: bool):
    if sparse:
        return make_binary_sparse(N_TUPLES, 60, nnz_per_row=8, separation=1.0, seed=13)
    return make_binary_dense(N_TUPLES, 10, separation=1.2, seed=11)


def _trainer(dataset, seed, ckpath=None, batch_size=1, optimizer=None):
    model = LogisticRegression(dataset.n_features)
    trainer = Trainer(
        model,
        dataset,
        EpochShuffle(dataset.n_tuples, seed=seed),
        epochs=EPOCHS,
        batch_size=batch_size,
        optimizer=optimizer(model) if optimizer is not None else None,
        checkpoint=CheckpointConfig(ckpath, every_tuples=CADENCE) if ckpath else None,
    )
    return model, trainer


def _crash_point(seed: int) -> int:
    # Randomized but reproducible: anywhere in the run except the very end.
    rng = np.random.default_rng([seed, 991])
    return int(rng.integers(1, EPOCHS * N_TUPLES - 1))


class TestTrainerCrashResume:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("sparse", [False, True])
    def test_killed_run_resumes_to_identical_weights(self, tmp_path, seed, sparse):
        dataset = _dataset(sparse)
        crash_at = _crash_point(seed)
        ckpath = tmp_path / "run.ckpt.npz"

        # Baseline: uninterrupted, same checkpoint cadence.
        base_model, base = _trainer(dataset, seed, ckpath=tmp_path / "base.npz")
        base_history = base.run()

        # Crashed run: killed after crash_at tuples.
        _, crashed = _trainer(dataset, seed, ckpath=ckpath)
        with pytest.raises(InjectedCrash), killed_at_tuple(crash_at):
            crashed.run()

        # Resume in a fresh process-equivalent: new model, new trainer.
        resumed_model, resumed = _trainer(dataset, seed, ckpath=ckpath)
        resumed_history = resumed.run()

        for key in base_model.params:
            diff = np.max(np.abs(base_model.params[key] - resumed_model.params[key]))
            assert diff <= 1e-12, (seed, sparse, crash_at, diff)
        assert len(resumed_history.records) == len(base_history.records)
        assert resumed_history.final.tuples_seen == EPOCHS * N_TUPLES

    @pytest.mark.parametrize("seed", SEEDS[:1])
    def test_mini_batch_adam_resume_restores_optimizer_state(self, tmp_path, seed):
        dataset = _dataset(sparse=False)
        ckpath = tmp_path / "adam.ckpt.npz"
        base_model, base = _trainer(
            dataset, seed, ckpath=tmp_path / "b.npz", batch_size=16, optimizer=Adam
        )
        base.run()

        _, crashed = _trainer(dataset, seed, ckpath=ckpath, batch_size=16, optimizer=Adam)
        with pytest.raises(InjectedCrash), killed_at_tuple(_crash_point(seed)):
            crashed.run()

        resumed_model, resumed = _trainer(
            dataset, seed, ckpath=ckpath, batch_size=16, optimizer=Adam
        )
        resumed.run()
        for key in base_model.params:
            # Adam's m/v/t slots must survive the round trip or the resumed
            # trajectory diverges immediately.
            assert np.max(np.abs(base_model.params[key] - resumed_model.params[key])) <= 1e-12

    def test_crash_before_first_cadence_point_is_resumable(self, tmp_path):
        dataset = _dataset(sparse=False)
        ckpath = tmp_path / "early.ckpt.npz"
        _, crashed = _trainer(dataset, 0, ckpath=ckpath)
        with pytest.raises(InjectedCrash), killed_at_tuple(3):
            crashed.run()
        state = load_checkpoint(ckpath)  # the run-start checkpoint exists
        assert (state.epoch, state.cursor) == (0, 0)


class TestCheckpointFormat:
    def test_roundtrip_preserves_everything(self, tmp_path):
        model = LogisticRegression(5)
        shape = model.params["w"].shape
        model.params["w"][...] = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) / 7
        path = save_checkpoint(
            tmp_path / "ck.npz",
            model,
            epoch=2,
            cursor=17,
            tuples_seen=617,
            optimizer_state={"velocity.w": np.ones(3)},
            history=[{"epoch": 0}],
            meta={"index_seed": 4},
        )
        state = load_checkpoint(path)
        assert np.array_equal(state.model.params["w"], model.params["w"])
        assert (state.epoch, state.cursor, state.tuples_seen) == (2, 17, 617)
        assert np.array_equal(state.optimizer_state["velocity.w"], np.ones(3))
        assert state.history == [{"epoch": 0}] and state.meta == {"index_seed": 4}

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, LogisticRegression(3), epoch=0, cursor=0, tuples_seen=0)
        assert not path.with_name(path.name + ".tmp").exists()

    def test_corrupt_checkpoint_raises_value_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_write_fsyncs_tmp_file_and_directory(self, tmp_path, monkeypatch):
        # Durability, not just atomicity: without an fsync of the tmp file
        # before the rename (and of the directory after it), a power loss
        # can surface a zero-length "checkpoint" under the final name.
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        path = tmp_path / "ck.npz"
        save_checkpoint(path, LogisticRegression(3), epoch=0, cursor=0, tuples_seen=0)
        # One fsync for the tmp file's fd, one for the parent directory.
        assert len(synced) >= 2

    def test_failed_write_leaks_no_tmp_and_keeps_previous(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, LogisticRegression(3), epoch=1, cursor=5, tuples_seen=50)
        before = path.read_bytes()

        def exploding_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            save_checkpoint(
                path, LogisticRegression(3), epoch=2, cursor=0, tuples_seen=99
            )
        monkeypatch.undo()
        # The failed attempt neither leaked its tmp file nor touched the
        # previous good checkpoint.
        assert not path.with_name(path.name + ".tmp").exists()
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 1

    def test_resume_guards_reject_mismatched_run(self, tmp_path):
        dataset = _dataset(sparse=False)
        ckpath = tmp_path / "g.ckpt.npz"
        _, t = _trainer(dataset, 0, ckpath=ckpath)
        t.run()
        # A checkpoint an unfused run wrote (an older build's default) was
        # taken on another update sequence -> refuse
        state = load_checkpoint(ckpath)
        assert state.meta["fused"] is True
        unfused = tmp_path / "unfused.ckpt.npz"
        save_checkpoint(
            unfused, state.model, epoch=state.epoch, cursor=state.cursor,
            tuples_seen=state.tuples_seen, history=state.history,
            meta={**state.meta, "fused": False},
        )
        _, resumed = _trainer(dataset, 0, ckpath=unfused)
        with pytest.raises(ValueError, match="fused"):
            resumed.run()
        # different index seed replays a different order -> refuse
        _, other_seed = _trainer(dataset, 1, ckpath=ckpath)
        with pytest.raises(ValueError, match="seed"):
            other_seed.run()


    def test_mini_batch_checkpoint_of_an_unfused_run_still_resumes(self, tmp_path):
        """``fused`` never changed a mini-batch run, so its checkpoint is not
        held to it: one an older build wrote with ``fused=False`` resumes to
        the bits of the run that never stopped."""
        dataset = _dataset(sparse=False)
        base_model, base = _trainer(dataset, 0, batch_size=16)
        base.run()
        ckpath = tmp_path / "mb.ckpt.npz"
        _, crashed = _trainer(dataset, 0, ckpath=ckpath, batch_size=16)
        with pytest.raises(InjectedCrash), killed_at_tuple(N_TUPLES + 40):
            crashed.run()
        state = load_checkpoint(ckpath)
        assert (state.epoch, state.cursor) == (1, 0)
        assert state.meta["fused"] is None
        save_checkpoint(
            ckpath, state.model, epoch=state.epoch, cursor=state.cursor,
            tuples_seen=state.tuples_seen, history=state.history,
            optimizer_state=state.optimizer_state, meta={**state.meta, "fused": False},
        )
        resumed_model, resumed = _trainer(dataset, 0, ckpath=ckpath, batch_size=16)
        resumed.run()
        np.testing.assert_array_equal(
            resumed_model.parameter_vector(), base_model.parameter_vector()
        )


class TestCorgiPileCrashResume:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_corgipile_order_killed_and_resumed_matches_uninterrupted(self, tmp_path, seed):
        """The two-level shuffle's visit order (25-tuple blocks, a 2-block
        buffer) is ``(seed, epoch)``-pure, so a per-tuple run killed
        anywhere resumes over the exact remaining order, bit for bit."""
        dataset = _dataset(sparse=False)
        ckpath = tmp_path / "corgi.ckpt.npz"

        def run(checkpoint=None):
            model = LogisticRegression(dataset.n_features)
            order = CorgiPileShuffle(BlockLayout(N_TUPLES, 25), buffer_blocks=2, seed=seed)
            Trainer(model, dataset, order, epochs=2, checkpoint=checkpoint).run()
            return model

        checkpoint = CheckpointConfig(ckpath, every_tuples=CADENCE)
        clean = run(CheckpointConfig(tmp_path / "clean.npz", every_tuples=CADENCE))
        with pytest.raises(InjectedCrash), killed_at_tuple(_crash_point(seed) % (2 * N_TUPLES)):
            run(checkpoint)
        resumed = run(checkpoint)
        for key in clean.params:
            assert np.array_equal(clean.params[key], resumed.params[key])
