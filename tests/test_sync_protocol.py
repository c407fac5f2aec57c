"""The sync step protocol: replicated update, one worker-only rendezvous a
step, the coordinator only at seams.

What is pinned here, on real spawned workers and tiny inputs:

* the model is the *bits* the two-barrier, coordinator-side protocol
  produced (``tests/goldens/sync_protocol.json``, recorded at the last
  commit that had it — never regenerate it from current code), for plain
  SGD, momentum and Adam;
* every worker's replica is the same bits at every seam;
* a worker waits at ``sync_steps`` + 2 x seams barriers, not 2 x steps;
* optimiser state crosses the seam and the checkpoint: a run killed or
  stopped mid-epoch resumes bit-exact with momentum and Adam;
* a worker that fails between two step barriers surfaces as its own
  traceback, promptly, and nothing is left alive;
* no ``MiniDB.train`` reads its block file back.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro.parallel
from repro import obs
from repro.data.generators import make_binary_dense
from repro.data.orderings import clustered_by_label
from repro.db import MiniDB
from repro.ml.models import LogisticRegression
from repro.ml.optim import SGD, Adam
from repro.ml.schedules import ExponentialDecay
from repro.ml.trainer import CheckpointConfig, TrainInterrupted
from repro.core.distributed import MultiProcessCorgiPile
from repro.parallel import ParallelTrainer, WorkerError
from repro.parallel.worker import BARRIER_TIMEOUT_S
from repro.storage import write_block_file

from ._oracles import sync_reference_trainer
from .test_parallel_engine import assert_no_leaked_children

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = json.loads((Path(__file__).parent / "goldens" / "sync_protocol.json").read_text())["cases"]

# The fixture the golden was recorded on (tests/test_parallel_engine.py's).
N_TUPLES, N_FEATURES, TUPLES_PER_BLOCK = 640, 8, 20
KNOBS = dict(mode="sync", epochs=2, seed=5, schedule=ExponentialDecay(0.05))
OPTIMIZERS = {
    "sgd": lambda model: None,
    "momentum": lambda model: SGD(model, momentum=0.9),
    "adam": Adam,
}


@pytest.fixture(scope="module")
def dataset():
    return make_binary_dense(N_TUPLES, N_FEATURES, seed=0)


@pytest.fixture(scope="module")
def block_file(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("sync") / "dense.blk"
    write_block_file(dataset, path, tuples_per_block=TUPLES_PER_BLOCK)
    return path


def trainer(path, optimizer="sgd", n_workers=2, gbs=32, **kwargs):
    model = LogisticRegression(N_FEATURES, seed=1)
    return ParallelTrainer(
        path, model, n_workers=n_workers, global_batch_size=gbs,
        optimizer=OPTIMIZERS[optimizer](model), **KNOBS, **kwargs,
    )


def golden_vector(case: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(GOLDEN[case]["params_hex"]), dtype=np.float64)


# ----------------------------------------------------------------------
# (a) / (b): the same bits as the coordinator-side update, on every replica
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "case, optimizer, n_workers, gbs",
    [
        ("pn2_sgd", "sgd", 2, 32),
        ("pn3_sgd", "sgd", 3, 48),
        ("pn2_momentum", "momentum", 2, 32),
        ("pn2_adam", "adam", 2, 32),
    ],
)
def test_model_is_bit_equal_to_the_two_barrier_protocol(
    block_file, dataset, monkeypatch, case, optimizer, n_workers, gbs
):
    seams = []
    adopt = ParallelTrainer._adopt_replicas

    def recording(self, replicas, fleet):
        seams.append(np.array(replicas))
        adopt(self, replicas, fleet)

    monkeypatch.setattr(ParallelTrainer, "_adopt_replicas", recording)
    run = trainer(block_file, optimizer, n_workers, gbs, eval_set=dataset)
    result = run.run()
    assert_no_leaked_children()
    assert result.sync_steps == GOLDEN[case]["sync_steps"]
    np.testing.assert_array_equal(run.model.parameter_vector(), golden_vector(case))

    # One seam an epoch; at each, every worker's replica is worker 0's.
    assert len(seams) == 2
    for replicas in seams:
        assert replicas.shape == (n_workers, N_FEATURES + 1)
        for replica in replicas[1:]:
            assert np.array_equal(replica, replicas[0])
    assert np.array_equal(seams[-1][0], run.model.parameter_vector())

    if optimizer == "sgd":
        reference = LogisticRegression(N_FEATURES, seed=1)
        sync_reference_trainer(
            block_file, reference, n_workers=n_workers, epochs=2, global_batch_size=gbs,
            seed=5, schedule=KNOBS["schedule"],
        ).run()
        diff = np.max(np.abs(run.model.parameter_vector() - reference.parameter_vector()))
        assert diff <= 1e-12


def test_diverged_replicas_are_refused(block_file, dataset):
    run = trainer(block_file, eval_set=dataset)
    replicas = np.zeros((2, N_FEATURES + 1))
    replicas[1, 3] = 1e-300
    with pytest.raises(WorkerError, match="diverged"):
        run._adopt_replicas(replicas, fleet=None)
    replicas[:] = np.nan  # the same bits are the same model, whatever they spell
    run._adopt_replicas(replicas, fleet=None)


# ----------------------------------------------------------------------
# (c): one rendezvous a step
# ----------------------------------------------------------------------


def test_a_worker_waits_once_a_step_and_twice_a_seam():
    """The ``train_parallel_grid`` workload's ``workers2`` statement."""
    table = clustered_by_label(make_binary_dense(20000, 28, separation=0.85, seed=0), seed=0)
    sql = (
        "SELECT * FROM higgs TRAIN BY svm WITH workers = 2, aggregation = 'sync', "
        "batch_size = 256, max_epoch_num = 3, learning_rate = 0.01, "
        "block_size = 64KB, buffer_fraction = 0.1, seed = 0"
    )

    def waits() -> int:
        snapshot = obs.get_registry().snapshot()["histograms"]
        return snapshot.get("parallel.barrier_wait_s", {"count": 0})["count"]

    with MiniDB(page_bytes=8192) as db:
        db.create_table("higgs", table)
        db.execute(sql)  # spawns the fleet: its ready rendezvous is not the statement's
        before = waits()
        result = db.execute(sql)
        per_worker = (waits() - before) / 2
    steps = result.query.extra["parallel"]["sync_steps"]
    assert steps > 200
    assert per_worker == steps + 2 * 3  # three epoch-end seams, a barrier pair each
    assert per_worker <= 250  # the two-barrier protocol: 2 x steps > 400


# ----------------------------------------------------------------------
# (d): optimiser state crosses the seam and the checkpoint
# ----------------------------------------------------------------------

_KILLED_RUN = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.ml.models import LogisticRegression
from repro.ml.optim import SGD, Adam
from repro.ml.schedules import ExponentialDecay
from repro.ml.trainer import CheckpointConfig
from repro.parallel import ParallelTrainer

def main():
    probes = []
    def kill_minus_nine():
        probes.append(None)
        if len(probes) > 50:
            os.kill(os.getpid(), signal.SIGKILL)
        return False
    model = LogisticRegression({n_features}, seed=1)
    optimizer = {{"momentum": lambda: SGD(model, momentum=0.9), "adam": lambda: Adam(model)}}[{optimizer!r}]()
    ParallelTrainer(
        {path!r}, model, n_workers=2, mode="sync", epochs=2, global_batch_size=32, seed=5,
        schedule=ExponentialDecay(0.05), optimizer=optimizer,
        checkpoint=CheckpointConfig({ckpt!r}, every_tuples=32), should_stop=kill_minus_nine,
    ).run()

if __name__ == "__main__":
    main()
"""


def _interrupt(how, block_file, dataset, optimizer, cp, tmp_path):
    if how == "kill":
        script = tmp_path / "killed_run.py"
        script.write_text(
            textwrap.dedent(_KILLED_RUN).format(
                src=SRC, n_features=N_FEATURES, optimizer=optimizer,
                path=str(block_file), ckpt=str(cp.path),
            )
        )
        done = subprocess.run([sys.executable, str(script)], capture_output=True, timeout=120)
        assert done.returncode == -signal.SIGKILL, done.stderr
        return
    probes = []
    with pytest.raises(TrainInterrupted):
        trainer(
            block_file, optimizer, checkpoint=cp, eval_set=dataset,
            should_stop=lambda: probes.append(None) or len(probes) > 50,
        ).run()
    assert_no_leaked_children()


@pytest.mark.parametrize("optimizer", ["momentum", "adam"])
@pytest.mark.parametrize("how", ["kill", "should_stop"])
def test_stateful_optimizer_resumes_bit_exact(block_file, dataset, tmp_path, optimizer, how):
    # A checkpoint seam after every step; both die in epoch 1, near tuple
    # 800, with 15 steps of momentum / Adam moments behind them.
    cp = CheckpointConfig(path=tmp_path / "sync.ckpt", every_tuples=32)
    _interrupt(how, block_file, dataset, optimizer, cp, tmp_path)

    run = trainer(block_file, optimizer, checkpoint=cp, eval_set=dataset)
    resumed = run.run()  # the checkpoint file exists: it resumes
    assert_no_leaked_children()
    assert 0 < resumed.sync_steps < 20  # picked up inside epoch 1
    np.testing.assert_array_equal(
        run.model.parameter_vector(), golden_vector(f"pn2_{optimizer}")
    )
    assert [r.epoch for r in resumed.history.records] == [0, 1]
    assert resumed.history.final.tuples_seen == 2 * N_TUPLES
    assert run.optimizer.state_dict()  # the coordinator's copy is the workers'


# ----------------------------------------------------------------------
# (e): a worker failing between two step barriers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("failing", [0, 2])
def test_a_worker_failing_mid_epoch_is_reported_as_itself(
    block_file, dataset, tmp_path, failing
):
    """Tear one block of the failing worker's *middle* epoch-0 fill: it
    raises ``ChecksumError`` steps into the epoch, its peers sitting in the
    step barrier and the coordinator at the epoch seam."""
    path = tmp_path / "torn.blk"
    path.write_bytes(block_file.read_bytes())
    index = Path(str(block_file) + ".index.json").read_text()
    Path(str(path) + ".index.json").write_text(index)
    fills = MultiProcessCorgiPile.for_block_file(path, 3, 2, seed=5).worker_buffer_fills(0, failing)
    assert len(fills) >= 5
    blocks, _ = fills[len(fills) // 2]
    entry = json.loads(index)["blocks"][int(blocks[0])]
    with open(path, "r+b") as f:
        f.seek(entry["offset"] + 5)
        byte = f.read(1)
        f.seek(entry["offset"] + 5)
        f.write(bytes([byte[0] ^ 0xFF]))

    start = time.monotonic()
    with pytest.raises(WorkerError) as failure:
        trainer(path, n_workers=3, gbs=48, eval_set=dataset).run()
    assert time.monotonic() - start < BARRIER_TIMEOUT_S / 4
    message = str(failure.value)
    assert f"parallel worker {failing} failed" in message
    assert "ChecksumError" in message and "BrokenBarrierError" not in message
    assert_no_leaked_children()


# ----------------------------------------------------------------------
# (f): the coordinator does not read back what it just wrote
# ----------------------------------------------------------------------


def test_no_train_statement_reads_its_block_file_back(dataset, monkeypatch):
    def read_back(*args, **kwargs):
        raise AssertionError("a TRAIN statement re-read its block file")

    for module in (repro.parallel, repro.parallel.engine, repro.parallel.hopper):
        monkeypatch.setattr(module, "load_block_dataset", read_back)
    with MiniDB(page_bytes=4096) as db:
        db.create_table("t", dataset)
        workers = db.execute(
            "SELECT * FROM t TRAIN BY svm WITH workers = 2, aggregation = 'sync', "
            "batch_size = 32, max_epoch_num = 1, block_size = 4KB, buffer_fraction = 0.2, seed = 3"
        )
        grid = db.execute(
            "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 1, block_size = 4KB, "
            "buffer_fraction = 0.2, seed = 3, grid = (lr = 0.05 | 0.005)"
        )
    assert workers.history.final.train_score > 0.6
    assert grid.history.final.train_score > 0.6
    assert_no_leaked_children()
