"""The worker fleet's lifetime: spawned once per ``MiniDB``, re-armed per
statement, discarded by any abort, and gone with its owner.

Every statement here is tiny (a few hundred tuples) and every wait is on a
pipe, a barrier or a process exit, so the file is deterministic on one core.
"""

import functools
import multiprocessing as mp
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
from repro.data import make_binary_dense
from repro.db import MiniDB, parse_query
from repro.faults import FaultPlan, InjectedCrash
from repro.ml.models import LogisticRegression
from repro.ml.trainer import CheckpointConfig, TrainInterrupted
from repro.parallel import ParallelTrainer, WorkerError
from repro.parallel.fleet import WorkerFleet
from repro.storage import write_block_file

SRC = str(Path(__file__).resolve().parents[1] / "src")

WORKERS_SQL = (
    "SELECT * FROM t TRAIN BY svm WITH workers = {n}, aggregation = 'sync', "
    "batch_size = 48, max_epoch_num = 2, learning_rate = 0.05, "
    "block_size = 4KB, buffer_fraction = 0.2, seed = 3"
)
GRID_SQL = (
    "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 4KB, "
    "buffer_fraction = 0.2, seed = 3, grid = (lr = 0.05 | 0.005)"
)


@pytest.fixture(scope="module")
def dataset():
    return make_binary_dense(960, 8, separation=1.2, seed=7)


def make_db(dataset) -> MiniDB:
    db = MiniDB(page_bytes=4096)
    db.create_table("t", dataset)
    return db


def trained(db, result) -> list[np.ndarray]:
    """The weights of every model a statement registered: the one, or the
    whole grid leaderboard in config order."""
    board = sorted(getattr(result, "leaderboard", None) or [], key=lambda row: row["config"])
    models = [db.get_model(row["model_id"]) for row in board] or [result.model]
    return [np.array(m.parameter_vector()) for m in models]


def alive(pid: int) -> bool:
    """Running — not gone, and not a zombie waiting for its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def fleet_children() -> list:
    return [p for p in mp.active_children() if p.name.startswith("repro-")]


def counter(name: str) -> float:
    return obs.get_registry().counter(name)


# ----------------------------------------------------------------------
# (a) / (b): reuse and replacement
# ----------------------------------------------------------------------


def test_one_fleet_serves_workers_and_grid_statements(dataset):
    statements = [WORKERS_SQL.format(n=2), GRID_SQL, WORKERS_SQL.format(n=2)]
    alone = []
    for sql in statements:
        with make_db(dataset) as db:
            alone.append(trained(db, db.execute(sql)))
    assert len(alone[1]) == 2  # both grid configs are compared, not only the winner

    spawns = counter("parallel.fleet.spawns")
    reuses = counter("parallel.fleet.reuses")
    with make_db(dataset) as db:
        pids = None
        for sql, expected in zip(statements, alone):
            got = trained(db, db.execute(sql))
            pids = pids or db._fleet.pids
            assert db._fleet.pids == pids and all(alive(p) for p in pids)
            assert len(got) == len(expected)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        assert counter("parallel.fleet.spawns") - spawns == 1
        assert counter("parallel.fleet.reuses") - reuses == 2
    assert not any(alive(p) for p in pids)
    assert fleet_children() == []


def test_a_statement_of_another_size_replaces_the_fleet(dataset):
    spawns = counter("parallel.fleet.spawns")
    with make_db(dataset) as db:
        db.execute(WORKERS_SQL.format(n=2))
        two = db._fleet.pids
        db.execute(WORKERS_SQL.format(n=3))
        three = db._fleet.pids
        assert len(two) == 2 and len(three) == 3 and not set(two) & set(three)
        assert not any(alive(p) for p in two) and all(alive(p) for p in three)
        assert counter("parallel.fleet.spawns") - spawns == 2
        db.close()
        assert not any(alive(p) for p in three)
        # close() is not the end of the engine: the next statement spawns again.
        db.execute(WORKERS_SQL.format(n=2))
        assert counter("parallel.fleet.spawns") - spawns == 3
    assert fleet_children() == []


# ----------------------------------------------------------------------
# (c): an abort discards the fleet; the engine carries on
# ----------------------------------------------------------------------


def _abort_with_worker_error(db, query, monkeypatch, cp):
    run = ParallelTrainer.run

    def run_with_the_block_file_gone(trainer, **kwargs):
        os.unlink(trainer.path)  # the coordinator has read it; the workers open it next
        return run(trainer, **kwargs)

    monkeypatch.setattr(ParallelTrainer, "run", run_with_the_block_file_gone)
    with pytest.raises(WorkerError, match="parallel worker"):
        db.train(query, checkpoint=cp)
    monkeypatch.setattr(ParallelTrainer, "run", run)


def _abort_with_interrupt(db, query, monkeypatch, cp):
    probes = []
    with pytest.raises(TrainInterrupted):
        # Probed where the coordinator joins the run — two probes a seam, a
        # seam every 96 tuples (two sync steps) and at each epoch end, ~20
        # probes an epoch: stops inside epoch 1.
        db.train(query, checkpoint=cp, should_stop=lambda: probes.append(0) or len(probes) > 26)


def _abort_with_injected_crash(db, query, monkeypatch, cp):
    crashing = functools.partial(ParallelTrainer, fault_plan=FaultPlan(seed=0, crash_at_tuple=1200))
    monkeypatch.setattr(repro.parallel, "ParallelTrainer", crashing)
    with pytest.raises(InjectedCrash):
        db.train(query, checkpoint=cp)
    monkeypatch.setattr(repro.parallel, "ParallelTrainer", ParallelTrainer)


@pytest.mark.parametrize(
    "abort", [_abort_with_worker_error, _abort_with_interrupt, _abort_with_injected_crash]
)
def test_an_abort_discards_the_fleet_and_the_next_statement_resumes(
    dataset, tmp_path, monkeypatch, abort
):
    query = parse_query(WORKERS_SQL.format(n=2))
    with make_db(dataset) as db:
        clean = db.train(query)

    cp = CheckpointConfig(tmp_path / "fleet.ckpt", every_tuples=96)
    with make_db(dataset) as db:
        db.execute(GRID_SQL)  # the fleet the failing statement finds idle
        failed_pids = db._fleet.pids
        abort(db, query, monkeypatch, cp)
        assert db._fleet.closed
        assert not any(alive(p) for p in failed_pids) and fleet_children() == []

        resumed = db.train(query, checkpoint=cp)  # from the checkpoint, on a fresh fleet
        assert not set(db._fleet.pids) & set(failed_pids)
        assert np.array_equal(resumed.model.parameter_vector(), clean.model.parameter_vector())
        assert [r.epoch for r in resumed.history.records] == [0, 1]
        again = db.execute(GRID_SQL)  # and that fleet is as reusable as the first
        assert again.history.final.train_score > 0.6
    assert fleet_children() == []


# ----------------------------------------------------------------------
# (e): a persistent worker's telemetry is per statement
# ----------------------------------------------------------------------


def test_each_statement_reports_its_own_telemetry(dataset, tmp_path):
    path = tmp_path / "t.blk"
    write_block_file(dataset, path, tuples_per_block=24)
    fleet = WorkerFleet(2)
    try:
        runs = []
        for _ in range(2):
            before = obs.get_registry().snapshot()
            result = ParallelTrainer(
                path, LogisticRegression(8, seed=1), n_workers=2, epochs=2,
                global_batch_size=48, seed=3, fleet=fleet,
            ).run()
            after = obs.get_registry().snapshot()
            runs.append(
                {
                    "tuples_processed": result.tuples_processed,
                    "per_worker": result.per_worker,
                    "counters": {
                        name: after["counters"][name] - before["counters"].get(name, 0)
                        for name in after["counters"]
                        if not name.startswith("parallel.fleet.")
                    },
                    "barrier_waits": after["histograms"]["parallel.barrier_wait_s"]["count"]
                    - before["histograms"].get("parallel.barrier_wait_s", {"count": 0})["count"],
                }
            )
        assert runs[0] == runs[1]
        assert runs[0]["tuples_processed"] == 2 * dataset.n_tuples
        assert runs[0]["counters"]["storage.blockfile.blocks_read"] > 0
    finally:
        fleet.close()
    assert fleet_children() == []


def test_traced_statements_ship_one_root_span_per_worker_each(dataset):
    tracer = obs.get_tracer()
    with make_db(dataset) as db:
        db.execute(WORKERS_SQL.format(n=2))  # untraced: the workers' tracers stay off
        obs.enable()
        try:
            for sql, root in ((WORKERS_SQL.format(n=2), "worker"), (GRID_SQL, "hopper.worker")):
                seen = len(tracer.spans)
                db.execute(sql)
                spans = tracer.spans[seen:]
                roots = [s for s in spans if s.name == root]
                assert sorted(s.attrs["worker"] for s in roots) == [0, 1]
                waits = [s for s in spans if s.name == "parallel.barrier_wait"]
                assert waits and all(
                    any(r.start <= w.start and w.end <= r.end for r in roots) for w in waits
                )
                assert not [s for s in spans if s.name == "parallel.fleet.spawn"]
        finally:
            obs.disable()
            tracer.reset()


# ----------------------------------------------------------------------
# (d) / (f): the fleet dies with its owner
# ----------------------------------------------------------------------

_SCRIPT_HEAD = f"""
import multiprocessing, os, sys, time
sys.path.insert(0, {SRC!r})
from repro.data import make_binary_dense
from repro.db import MiniDB, parse_query

SQL = {WORKERS_SQL.format(n=2)!r}

def make_db():
    db = MiniDB(page_bytes=4096)
    db.create_table("t", make_binary_dense(960, 8, separation=1.2, seed=7))
    return db
"""


def _script(tmp_path, body: str) -> Path:
    """A real file with a ``__main__`` guard: spawn children re-import it."""
    path = tmp_path / "fleet_owner.py"
    path.write_text(
        textwrap.dedent(_SCRIPT_HEAD)
        + "\ndef main():\n"
        + textwrap.indent(textwrap.dedent(body), "    ")
        + '\nif __name__ == "__main__":\n    main()\n'
    )
    return path


def test_dropping_the_engine_without_close_leaves_nothing_behind(tmp_path):
    script = _script(
        tmp_path,
        """
        segments = set(os.listdir("/dev/shm"))
        db = make_db()
        db.execute(SQL)
        db.execute(SQL)
        pids = db._fleet.pids
        db = None
        assert multiprocessing.active_children() == [], multiprocessing.active_children()
        assert set(os.listdir("/dev/shm")) <= segments, os.listdir("/dev/shm")
        print(*pids)
        """,
    )
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert not any(alive(int(p)) for p in done.stdout.split())


@pytest.mark.parametrize("when", ["idle", "mid_statement"])
def test_workers_do_not_outlive_a_killed_coordinator(tmp_path, when):
    body = {
        "idle": """
        db = make_db()
        db.execute(SQL)
        print(*db._fleet.pids, flush=True)
        time.sleep(600)
        """,
        "mid_statement": """
        db = make_db()
        def stall():
            print(*db._fleet.pids, flush=True)
            time.sleep(600)
        db.train(parse_query(SQL), should_stop=stall)
        """,
    }[when]
    with subprocess.Popen(
        [sys.executable, str(_script(tmp_path, body))], stdout=subprocess.PIPE, text=True
    ) as owner:
        try:
            pids = [int(p) for p in owner.stdout.readline().split()]
            assert len(pids) == 2 and all(alive(p) for p in pids)
        finally:
            owner.send_signal(signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(alive(p) for p in pids)
