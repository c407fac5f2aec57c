"""The training daemon: protocol, sessions, job queue, crash recovery.

Three layers of coverage:

* protocol units — frame round-trips, bounds, blob codec (no sockets);
* in-process integration — a real :class:`ReproServer` on an ephemeral
  port, driven by real :class:`ReproClient` connections: concurrent
  sessions with isolated catalogs, the async TRAIN lifecycle, cancel
  mid-job, admission-control rejection;
* out-of-process crash test — the daemon as a subprocess, SIGKILLed
  mid-TRAIN and restarted over the same data dir; the resumed job's model
  must be *bit-identical* to an uninterrupted run of the same statement.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    ConnectionClosed,
    ProtocolError,
    ReproClient,
    ReproServer,
    SaturatedError,
    ServerError,
    decode_blob,
    decode_frame,
    encode_blob,
    encode_frame,
    err,
    ok,
    recv_frame,
    send_frame,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: One short statement used throughout; small dataset, tiny blocks.
TRAIN_SQL = (
    "SELECT * FROM susy TRAIN BY lr "
    "WITH max_epoch_num = 2, block_size = 16KB, buffer_fraction = 0.2"
)
#: A statement slow enough to still be running when we interfere with it.
SLOW_TRAIN_SQL = (
    "SELECT * FROM susy TRAIN BY lr "
    "WITH max_epoch_num = 200, block_size = 16KB, buffer_fraction = 0.2"
)


# ======================================================================
# Protocol units
# ======================================================================


class TestProtocol:
    def test_frame_round_trip(self):
        message = {"type": "sql", "sql": "SELECT 1", "nested": {"a": [1, 2.5]}}
        frame = encode_frame(message)
        assert frame[:4] == len(frame[4:]).to_bytes(4, "big")
        assert decode_frame(frame[4:]) == message

    def test_frame_serialises_numpy(self):
        frame = encode_frame({"x": np.float64(1.5), "v": np.arange(3)})
        assert decode_frame(frame[4:]) == {"x": 1.5, "v": [0, 1, 2]}

    def test_oversized_frame_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.serve.protocol.MAX_FRAME_BYTES", 16)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"pad": "x" * 64})

    def test_undecodable_payload_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(b"\xff\xfenot json")
        with pytest.raises(ProtocolError, match="object"):
            decode_frame(b"[1, 2, 3]")

    def test_socket_round_trip_and_clean_close(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ok(session="s1"))
            send_frame(a, err("nope", "bad"))
            assert recv_frame(b) == {"ok": True, "session": "s1"}
            assert recv_frame(b) == {"ok": False, "code": "nope", "error": "bad"}
            a.close()
            with pytest.raises(ConnectionClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_mid_frame_death_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"type": "hello"})
            a.sendall(frame[: len(frame) - 3])  # die 3 bytes short
            a.close()
            with pytest.raises(ProtocolError, match="short"):
                recv_frame(b)
        finally:
            b.close()

    def test_blob_codec_round_trip(self):
        blob = os.urandom(257)
        assert decode_blob(encode_blob(blob)) == blob
        with pytest.raises(ProtocolError, match="blob"):
            decode_blob("not//valid//base64!!")


# ======================================================================
# In-process integration
# ======================================================================


@pytest.fixture(autouse=True)
def fresh_obs():
    """Each test gets a clean process-wide registry.

    Session ids restart at ``s1`` for every server instance, so without a
    reset the per-session ``serve.session.s1.*`` meters would accumulate
    across tests (a pure test artifact: real daemons are one per process).
    """
    from repro import obs

    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def server(tmp_path):
    srv = ReproServer(
        tmp_path / "state",
        job_workers=1,
        max_queued=4,
        checkpoint_every_tuples=128,
    ).start()
    yield srv
    srv.stop()


def connect(server: ReproServer) -> ReproClient:
    return ReproClient(server.host, server.port)


class TestServerSessions:
    def test_train_job_lifecycle(self, server):
        with connect(server) as client:
            client.load("susy")
            job_id = client.submit(TRAIN_SQL)
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["result"]["epochs"] == 2
            assert final["result"]["tuples_seen"] > 0
            # The finished model is addressable from the owning session...
            pred = client.sql(f"SELECT * FROM susy PREDICT BY {job_id}")
            assert pred["n_predictions"] > 0
            # ...and downloadable as a real model object.
            model = client.fetch_model(job_id)
            assert model.w.shape[0] > 0

    def test_select_runs_inline(self, server):
        with connect(server) as client:
            client.load("susy")
            result = client.sql("SELECT * FROM susy LIMIT 5")["result"]
            assert len(result["rows"]) == 5
            assert result["n_tuples"] > 5

    def test_four_concurrent_sessions_with_isolated_catalogs(self, server):
        """Four clients share one daemon but see only their own tables."""
        datasets = ["susy", "higgs", "criteo", "susy"]
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def run(i: int) -> None:
            try:
                with connect(server) as client:
                    # Everyone names their table "t"; contents must not leak.
                    info = client.load(datasets[i], table="t", seed=i)
                    seen = client.sql("SELECT * FROM t")["result"]
                    results[i] = {
                        "loaded": info["n_tuples"],
                        "seen": seen["n_tuples"],
                        "features": seen["n_features"],
                    }
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(results) == 4
        for i, seen in results.items():
            assert seen["seen"] == seen["loaded"]
        # susy and higgs genuinely differ, so a leak would be visible.
        assert results[0]["features"] != results[1]["features"]

    def test_models_do_not_leak_between_sessions(self, server):
        with connect(server) as owner, connect(server) as other:
            owner.load("susy")
            other.load("susy")
            job_id = owner.submit(TRAIN_SQL)
            assert owner.wait(job_id, timeout=120)["state"] == "done"
            assert owner.sql(f"SELECT * FROM susy PREDICT BY {job_id}")
            with pytest.raises(ServerError):
                other.sql(f"SELECT * FROM susy PREDICT BY {job_id}")
            # The job *listing* is scoped too unless asked for all.
            assert other.jobs() == []
            assert [j["job_id"] for j in other.jobs(all_sessions=True)] == [job_id]

    def test_unknown_table_and_parse_errors_are_typed(self, server):
        with connect(server) as client:
            with pytest.raises(ServerError) as excinfo:
                client.sql("SELECT * FROM nowhere")
            assert excinfo.value.code in ("engine_error", "not_found")
            with pytest.raises(ServerError) as excinfo:
                client.sql("FROBNICATE THE DATABASE")
            assert excinfo.value.code == "parse_error"

    def test_cancel_mid_train(self, server):
        with connect(server) as client:
            client.load("susy")
            job_id = client.submit(SLOW_TRAIN_SQL)
            deadline = time.monotonic() + 60
            while client.status(job_id)["state"] == "queued":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.02)
            client.cancel(job_id)
            final = client.wait(job_id, timeout=60)
            assert final["state"] == "cancelled"
            with pytest.raises(ServerError):
                client.fetch_model(job_id)

    def test_stats_surface(self, server):
        with connect(server) as client:
            client.load("susy")
            job_id = client.submit(TRAIN_SQL)
            client.wait(job_id, timeout=120)
            stats = client.stats()
            assert stats["server"]["sessions_open"] == 1
            assert stats["queue"]["capacity"] == 4
            assert stats["jobs"]["done"] >= 1
            assert stats["jobs"]["queue_wait_s"]["count"] >= 1
            sid = client.session_id
            assert stats["sessions"][sid]["jobs_submitted"] == 1


class TestAdmissionControl:
    def test_saturated_queue_rejects_with_retry_after(self, tmp_path):
        server = ReproServer(
            tmp_path / "state", job_workers=1, max_queued=1
        ).start()
        try:
            with connect(server) as client:
                client.load("susy")
                # Occupy the single worker, then fill the single queue slot.
                running = client.submit(SLOW_TRAIN_SQL)
                deadline = time.monotonic() + 60
                while client.status(running)["state"] == "queued":
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                queued = client.submit(SLOW_TRAIN_SQL)
                with pytest.raises(SaturatedError) as excinfo:
                    client.submit(SLOW_TRAIN_SQL)
                assert excinfo.value.retry_after_s > 0
                assert excinfo.value.code == "saturated"
                # The daemon stays responsive while saturated (no hang).
                assert client.stats()["queue"]["depth"] == 1
                client.cancel(queued)
                client.cancel(running)
        finally:
            server.stop()


# ======================================================================
# Crash recovery — the daemon as a subprocess, SIGKILLed mid-TRAIN
# ======================================================================

RESUME_SQL = (
    "SELECT * FROM susy TRAIN BY lr "
    "WITH max_epoch_num = 40, block_size = 16KB, buffer_fraction = 0.2, seed = 3"
)


def spawn_daemon(data_dir: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", str(data_dir),
            "--job-workers", "1",
            "--checkpoint-every", "64",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    server_file = data_dir / "server.json"
    while time.monotonic() < deadline:
        if server_file.exists() and proc.poll() is None:
            return proc
        if proc.poll() is not None:
            raise RuntimeError("daemon died during startup")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("daemon never advertised its port")


def connect_to_dir(data_dir: Path, timeout: float = 30.0) -> ReproClient:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return ReproClient.from_server_file(data_dir)
        except (OSError, ConnectionError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


class TestCrashRecovery:
    def test_sigkill_mid_train_then_restart_resumes_bit_exact(self, tmp_path):
        # --- Reference: the same statement, uninterrupted. ---------------
        ref_dir = tmp_path / "reference"
        proc = spawn_daemon(ref_dir)
        try:
            with connect_to_dir(ref_dir) as client:
                client.load("susy")
                job_id = client.submit(RESUME_SQL)
                assert client.wait(job_id, timeout=300)["state"] == "done"
                reference = client.fetch_model(job_id)
                client.shutdown()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # --- Victim: SIGKILL once a mid-epoch checkpoint exists. ---------
        crash_dir = tmp_path / "crash"
        proc = spawn_daemon(crash_dir)
        try:
            with connect_to_dir(crash_dir) as client:
                client.load("susy")
                job_id = client.submit(RESUME_SQL)
            ckpt = crash_dir / "jobs" / f"{job_id}.ckpt.npz"
            deadline = time.monotonic() + 120
            while not ckpt.exists():
                assert time.monotonic() < deadline, "no checkpoint before kill"
                assert proc.poll() is None
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

            spec = json.loads((crash_dir / "jobs" / f"{job_id}.json").read_text())
            assert spec["state"] in ("queued", "running")

            # --- Restart over the same directory; the journal resumes. ---
            proc = spawn_daemon(crash_dir)
            with connect_to_dir(crash_dir) as client:
                final = client.wait(job_id, timeout=300)
                assert final["state"] == "done"
                resumed = client.fetch_model(job_id)
                client.shutdown()
            proc.wait(timeout=30)

            spec = json.loads((crash_dir / "jobs" / f"{job_id}.json").read_text())
            assert spec.get("recovered") is True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # Bit-exact: the kill+resume run converged to the identical model.
        np.testing.assert_array_equal(resumed.w, reference.w)
        assert resumed.b == reference.b


# ======================================================================
# Durable job journal details
# ======================================================================


class TestJobJournal:
    def test_specs_survive_and_terminal_jobs_are_not_reenqueued(self, tmp_path):
        state = tmp_path / "state"
        server = ReproServer(state, job_workers=1).start()
        with connect(server) as client:
            client.load("susy")
            job_id = client.submit(TRAIN_SQL)
            assert client.wait(job_id, timeout=120)["state"] == "done"
        server.stop()

        spec = json.loads((state / "jobs" / f"{job_id}.json").read_text())
        assert spec["state"] == "done"
        assert (state / "jobs" / f"{job_id}.model.npz").exists()
        assert not (state / "jobs" / f"{job_id}.ckpt.npz").exists()

        # A second daemon over the same dir sees the job but re-runs nothing.
        server = ReproServer(state, job_workers=1).start()
        try:
            with connect(server) as client:
                jobs = client.jobs(all_sessions=True)
                assert [j["job_id"] for j in jobs] == [job_id]
                assert jobs[0]["state"] == "done"
                # Job ids keep counting upward across incarnations.
                client.load("susy")
                next_id = client.submit(TRAIN_SQL)
                assert next_id != job_id
                assert client.wait(next_id, timeout=120)["state"] == "done"
        finally:
            server.stop()

    def test_stop_requeues_running_jobs_for_next_boot(self, tmp_path):
        state = tmp_path / "state"
        server = ReproServer(state, job_workers=1).start()
        with connect(server) as client:
            client.load("susy")
            job_id = client.submit(SLOW_TRAIN_SQL)
            deadline = time.monotonic() + 60
            while client.status(job_id)["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.02)
        server.stop()  # graceful: interrupts the job at a batch boundary

        spec = json.loads((state / "jobs" / f"{job_id}.json").read_text())
        assert spec["state"] == "queued"
        assert spec.get("interrupted") is True


class TestRecover:
    """``recover()`` runs before ``start()``: it must never block, and it
    must never guess at a journal it does not understand."""

    SQL = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 1, block_size = 16KB"

    def _journal(self, data_dir, n_jobs):
        """Journal ``n_jobs`` queued jobs the way a killed daemon leaves them."""
        from repro.data import make_binary_dense
        from repro.db import MiniDB, parse_query
        from repro.serve.jobs import JobManager

        db = MiniDB(page_bytes=4096)
        db.create_table("t", make_binary_dense(300, 6, seed=0))
        manager = JobManager(data_dir, max_queued=n_jobs)  # never started
        return [
            manager.submit("s1", self.SQL, parse_query(self.SQL), db).job_id
            for _ in range(n_jobs)
        ]

    def test_recover_is_not_subject_to_the_admission_bound(self, tmp_path):
        """Was: ``recover`` re-enqueued with a blocking ``put`` into a queue
        bounded at ``max_queued``; a daemon killed while saturated journals
        ``max_queued`` queued + its running jobs, so the restart hung."""
        from repro.serve.jobs import JobManager, Saturated
        from repro.db import MiniDB, parse_query

        max_queued = 2
        job_ids = self._journal(tmp_path, max_queued + 1)
        manager = JobManager(tmp_path, max_queued=max_queued, workers=1)
        assert manager.recover() == job_ids  # returned: nothing blocked
        # Admission still holds for *new* work while the backlog drains.
        with pytest.raises(Saturated):
            manager.submit("s2", self.SQL, parse_query(self.SQL), MiniDB())
        # Every recovered job runs, in ordinal order.
        started = []
        execute = manager._execute
        manager._execute = lambda job: (started.append(job.job_id), execute(job))
        manager.start()
        try:
            manager._queue.join()
        finally:
            manager.stop()
        assert started == job_ids
        assert [manager.get(j).state for j in job_ids] == ["done"] * len(job_ids)

    def test_journal_with_retired_knobs_recovers_bit_exactly(self, tmp_path):
        """A journal written while ``TrainSpec`` still had ``fused`` and
        ``double_buffer`` (admission set ``fused`` to ``true``) loads, runs,
        and trains the inline ``TRAIN`` of the same statement to the bit."""
        from repro.data import make_binary_dense
        from repro.db import MiniDB, parse_query
        from repro.ml import load_model
        from repro.serve.jobs import JobManager

        (job_id,) = self._journal(tmp_path, 1)
        spec_path = tmp_path / "jobs" / f"{job_id}.json"
        journal = json.loads(spec_path.read_text())
        journal["spec"].update({"fused": True, "double_buffer": True})
        spec_path.write_text(json.dumps(journal))

        manager = JobManager(tmp_path, workers=1)
        assert manager.recover() == [job_id]
        manager.start()
        try:
            manager._queue.join()
        finally:
            manager.stop()
        job = manager.get(job_id)
        assert job.state == "done", job.spec.get("error")

        db = MiniDB(page_bytes=4096)
        db.create_table("t", make_binary_dense(300, 6, seed=0))
        inline = db.execute(self.SQL + ", fused = true").model
        np.testing.assert_array_equal(
            load_model(job.model_path).parameter_vector(), inline.parameter_vector()
        )

    def test_journalled_async_aggregation_fails_naming_what_is_left(self, tmp_path):
        """A job journalled while ``aggregation = 'async'`` existed is
        recovered and then fails with the spec's own refusal."""
        from repro.serve.jobs import JobManager

        (job_id,) = self._journal(tmp_path, 1)
        spec_path = tmp_path / "jobs" / f"{job_id}.json"
        journal = json.loads(spec_path.read_text())
        journal["spec"].update({"workers": 2, "aggregation": "async"})
        spec_path.write_text(json.dumps(journal))

        manager = JobManager(tmp_path, workers=1)
        assert manager.recover() == [job_id]
        manager.start()
        try:
            manager._queue.join()
        finally:
            manager.stop()
        job = manager.get(job_id)
        assert job.state == "failed"
        assert job.spec["error"] == "unknown aggregation 'async'; supported: sync | epoch"

    def test_job_journalled_by_the_previous_release_fails_loudly(self, tmp_path):
        from repro.serve.jobs import JobManager

        (job_id,) = self._journal(tmp_path, 1)
        spec_path = tmp_path / "jobs" / f"{job_id}.json"
        spec = json.loads(spec_path.read_text())
        del spec["page_bytes"]  # the PR 13 journal had no table facts
        spec_path.write_text(json.dumps(spec))
        manager = JobManager(tmp_path)
        assert manager.recover() == []
        job = manager.get(job_id)
        assert job.state == "failed"
        assert "journal format changed" in job.spec["error"]


class TestJobDoneOrdering:
    def test_job_is_not_done_until_its_model_is_registered(self, tmp_path):
        """Was: ``done`` was journalled before ``on_done`` registered the
        model, so ``wait()`` -> ``PREDICT BY job_N`` could find no model."""
        from repro.data import make_binary_dense
        from repro.db import MiniDB, parse_query
        from repro.serve.jobs import JobManager

        registering, release = threading.Event(), threading.Event()
        states_seen = []

        def on_done(job, model):
            states_seen.append(job.state)
            registering.set()
            assert release.wait(120)

        sql = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 1, block_size = 16KB"
        db = MiniDB(page_bytes=4096)
        db.create_table("t", make_binary_dense(300, 6, seed=0))
        manager = JobManager(tmp_path, workers=1, on_done=on_done)
        manager.start()
        try:
            job = manager.submit("s1", sql, parse_query(sql), db)
            assert registering.wait(120)
            # The model file is durable and registration is in flight: the
            # job must still read as running to every poller.
            assert job.model_path.exists()
            assert job.state == "running"
            assert job.describe()["state"] == "running"
            release.set()
            manager._queue.join()  # the worker has left _execute
            assert job.state == "done"
            assert states_seen == ["running"]
        finally:
            release.set()
            manager.stop()


class TestAdvisorOverTheWire:
    """``strategy = auto`` jobs journal the strategy that runs plus the
    advisor's full decision as evidence, and serve both back through the
    status protocol, round-trippable into an
    :class:`~repro.db.advisor.AdvisorDecision`."""

    AUTO_SQL = (
        "SELECT * FROM susy TRAIN BY lr WITH strategy = auto, "
        "max_epoch_num = 2, block_size = 16KB, buffer_fraction = 0.2"
    )

    def test_auto_job_journals_and_serves_decision(self, tmp_path):
        from repro.db.advisor import AdvisorDecision

        state = tmp_path / "state"
        server = ReproServer(state, job_workers=1, device="hdd").start()
        try:
            with connect(server) as client:
                client.load("susy", order="clustered")
                # The session's engine is costed on the daemon's device, so
                # the EXPLAIN and the job it precedes agree.
                explained = client.sql("EXPLAIN " + self.AUTO_SQL)["plan"]
                job_id = client.submit(self.AUTO_SQL)
                final = client.wait(job_id, timeout=120)
        finally:
            server.stop()
        assert "Advisor (device=hdd" in explained
        assert final["state"] == "done"
        # The job runs the advisor's pick — resolved once, at admission —
        # on the engine's executors; the journal says what ran (top level
        # and in the resolved spec) and keeps the decision as evidence.
        decision = AdvisorDecision.from_doc(final["advisor"])
        assert decision.strategy in (
            "no_shuffle", "block_reversal", "block_reshuffle",
            "corgipile", "corgi2", "shuffle_once", "random_access",
        )
        assert final["strategy"] == decision.strategy == final["spec"]["strategy"]
        assert decision.device == "hdd"
        assert decision.hd.hd >= 1.0
        assert "Advisor (device=hdd" in decision.render()
        # And the on-disk journal carries the same doc verbatim.
        spec = json.loads((state / "jobs" / f"{job_id}.json").read_text())
        assert spec["advisor"] == final["advisor"]

    def test_unrunnable_strategy_is_rejected_at_admission(self, server):
        """Flipped by PR 14: a job used to run only sharded CorgiPile over
        its block file, so ``strategy = no_shuffle`` was refused at submit.
        Jobs now run the engine's plan, so it is admitted and runs as
        journalled; what admission rejects is exactly what the inline engine
        rejects — here a strategy with no block-file plan — with its message.
        """
        with connect(server) as client:
            client.load("susy")
            job_id = client.submit(TRAIN_SQL + ", strategy = no_shuffle")
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["strategy"] == final["spec"]["strategy"] == "no_shuffle"
            with pytest.raises(ServerError) as excinfo:
                client.submit(TRAIN_SQL + ", strategy = no_shuffle, workers = 2")
            assert excinfo.value.code == "engine_error"
            assert "corgipile" in str(excinfo.value)
            assert [j["job_id"] for j in client.jobs()] == [job_id]

    def test_fixed_strategy_jobs_skip_the_advisor(self, server):
        with connect(server) as client:
            client.load("susy")
            job_id = client.submit(TRAIN_SQL)
            final = client.wait(job_id, timeout=120)
        assert final["state"] == "done"
        assert final["strategy"] == "corgipile"
        assert "advisor" not in final


# ======================================================================
# Protocol v2 negotiation
# ======================================================================


class TestProtocolNegotiation:
    def _raw_hello(self, server, version):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            send_frame(sock, {"type": "hello", "version": version})
            reply = recv_frame(sock)
            if reply.get("ok"):
                send_frame(sock, {"type": "bye"})
                recv_frame(sock)
            return reply

    def test_v2_hello_negotiates_v2(self, server):
        reply = self._raw_hello(server, 2)
        assert reply["ok"] and reply["version"] == 2

    @pytest.mark.parametrize("version", [1, 99])
    def test_unsupported_version_rejected_with_range(self, server, version):
        """v1 (the fallback was dropped in PR 14) and the future alike."""
        reply = self._raw_hello(server, version)
        assert not reply["ok"]
        assert reply["code"] == "version_mismatch"
        assert reply["server_version"] == reply["min_version"] == 2
        assert "2..2" in reply["error"]

    def test_non_integer_version_rejected(self, server):
        reply = self._raw_hello(server, "two")
        assert not reply["ok"] and reply["code"] == "version_mismatch"


# ======================================================================
# Grid TRAIN jobs over the wire
# ======================================================================

GRID_TRAIN_SQL = (
    "SELECT * FROM susy TRAIN BY lr "
    "WITH max_epoch_num = 2, block_size = 16KB, buffer_fraction = 0.2, seed = 3, "
    "grid = (learning_rate = 0.1 | 0.01, l2 = 0 | 0.0001)"
)


class TestGridJobs:
    def test_grid_job_round_trip(self, server):
        with connect(server) as client:
            client.load("susy")
            job_id = client.submit(GRID_TRAIN_SQL)
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done", final.get("error")

            # The canonical TrainSpec document travels with the status.
            assert final["spec"]["grid"]["n_configs"] == 4
            assert final["grid"]["n_configs"] == 4

            result = final["result"]
            leaderboard = result["grid"]["leaderboard"]
            assert len(leaderboard) == 4
            assert [row["rank"] for row in leaderboard] == [0, 1, 2, 3]
            losses = [row["final_train_loss"] for row in leaderboard]
            assert losses == sorted(losses)
            assert result["grid"]["best"]["config"] == leaderboard[0]["config"]
            assert result["schedule"]["n_models"] == 4

            # Slot progress was journalled along the way.
            progress = final["grid_progress"]
            assert progress["slots_done"] == progress["total_slots"]
            assert progress["epochs_completed"] == [2, 2, 2, 2]

            # The winner is addressable like any finished job's model.
            pred = client.sql(f"SELECT * FROM susy PREDICT BY {job_id}")
            assert pred["n_predictions"] > 0
            model = client.fetch_model(job_id)
            assert model.w.size > 0

    def test_grid_sigkill_restart_resumes_bit_exact(self, tmp_path):
        grid_resume_sql = GRID_TRAIN_SQL.replace(
            "max_epoch_num = 2", "max_epoch_num = 6"
        )
        # --- Reference: the same grid, uninterrupted. --------------------
        ref_dir = tmp_path / "reference"
        proc = spawn_daemon(ref_dir)
        try:
            with connect_to_dir(ref_dir) as client:
                client.load("susy")
                job_id = client.submit(grid_resume_sql)
                ref_final = client.wait(job_id, timeout=600)
                assert ref_final["state"] == "done"
                reference = client.fetch_model(job_id)
                client.shutdown()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # --- Victim: SIGKILL once the slot checkpoint exists. ------------
        crash_dir = tmp_path / "crash"
        proc = spawn_daemon(crash_dir)
        try:
            with connect_to_dir(crash_dir) as client:
                client.load("susy")
                job_id = client.submit(grid_resume_sql)
            ckpt = crash_dir / "jobs" / f"{job_id}.ckpt.npz"
            deadline = time.monotonic() + 120
            while not ckpt.exists():
                assert time.monotonic() < deadline, "no checkpoint before kill"
                assert proc.poll() is None
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

            proc = spawn_daemon(crash_dir)
            with connect_to_dir(crash_dir) as client:
                final = client.wait(job_id, timeout=600)
                assert final["state"] == "done"
                resumed = client.fetch_model(job_id)
                client.shutdown()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # Bit-exact winner, identical leaderboard.
        np.testing.assert_array_equal(resumed.w, reference.w)
        assert resumed.b == reference.b
        ref_rows = ref_final["result"]["grid"]["leaderboard"]
        res_rows = final["result"]["grid"]["leaderboard"]
        assert [r["config"] for r in res_rows] == [r["config"] for r in ref_rows]
        assert [r["final_train_loss"] for r in res_rows] == [
            r["final_train_loss"] for r in ref_rows
        ]

    def test_grid_where_combination_rejected(self, server):
        with connect(server) as client:
            client.load("susy")
            with pytest.raises(ServerError, match="grid"):
                client.submit(
                    "SELECT * FROM susy WHERE f0 >= 0 TRAIN BY lr "
                    "WITH max_epoch_num = 1, block_size = 16KB, "
                    "grid = (lr = 0.1 | 0.01)"
                )
