"""The async TRAIN job queue: submit/poll/cancel with durable state.

A ``TRAIN BY`` statement arriving at the daemon is not run inline — it is
*admitted* (or rejected with a retry-after when the queue is full), written
durably to the server's data directory, and executed by a worker-thread
pool.  Clients poll by job id.  The paper's in-DB setting motivates the
shape: a database is a long-lived server, and a multi-epoch SGD scan is the
kind of statement you submit and poll, not hold a connection open for
(MADlib runs it as an aggregate over many transactions for the same
reason).

Durability contract
-------------------
Every job owns four files under ``<data_dir>/jobs/``:

* ``<id>.json``    — the *resolved* statement + state, rewritten via
  :func:`repro.ml.persistence.durable_write` on every transition;
* ``<id>.blocks``  — a snapshot of the rows the job trains, taken at submit
  time (plus its ``.index.json``), so the job is self-contained and
  survives its session;
* ``<id>.ckpt.npz`` — the crash-safe training checkpoint, written by the
  engine's executor on the ``checkpoint_every_tuples`` cadence (a grid
  after every hopper slot);
* ``<id>.model.npz`` — the finished model (fetchable after any restart).

One computation everywhere
--------------------------
A job is not a second training stack: the worker rebuilds the snapshot as a
table in a private :class:`~repro.db.engine.MiniDB` on the daemon's device
and calls ``MiniDB.train`` with the journalled spec.  The statement is
resolved **once**, at admission (``auto`` → the advisor's pick, ``WHERE`` →
the qualifying rows, ``warm_start = job_N`` → that job's model file), so a
served job is bit-identical to the inline ``TRAIN`` of its ``spec`` over the
same rows.  One caveat: the snapshot is
*compacted* — on a table whose live heap has dead slots from DML the inline
run packs pages around the holes and can visit tuples in another order.

Kill the daemon at any instant and restart it over the same data dir:
``recover()`` re-enqueues every non-terminal job and the executor resumes
from the checkpoint **bit-exactly** — the visit order is a pure function of
``(seed, epoch)`` and the checkpoint cadence never changes the numerics
(see :class:`~repro.db.operators.SGDOperator`).

Admission control
-----------------
The queue is bounded.  ``submit`` on a full queue raises
:class:`Saturated` carrying a ``retry_after_s`` estimate derived from the
recent per-job runtime and the backlog depth — the protocol layer turns it
into a ``saturated`` error response, so a flooded daemon degrades into
explicit backpressure instead of unbounded memory growth or hung clients.
"""

from __future__ import annotations

import contextlib
import json
import queue
import re
import threading
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

from .. import obs
from ..db.engine import MiniDB
from ..db.spec import TrainSpec
from ..ml.persistence import durable_write, model_to_bytes
from ..ml.trainer import CheckpointConfig, TrainInterrupted
from ..parallel.engine import load_block_dataset
from ..storage.blockfile import write_block_file
from ..storage.iomodel import device_by_name

__all__ = ["JOB_STATES", "TERMINAL_STATES", "Saturated", "Job", "JobManager"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Rows per block of a job's snapshot file.  A container choice only: the
#: geometry a job trains with is planned by the engine when it runs.
_SNAPSHOT_BLOCK_TUPLES = 512


class Saturated(RuntimeError):
    """Admission control rejected the job; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float, depth: int):
        super().__init__(
            f"job queue full ({depth} queued); retry in {retry_after_s:.1f}s"
        )
        self.retry_after_s = retry_after_s
        self.depth = depth


class Job:
    """One TRAIN job: the durable spec plus in-process control state."""

    def __init__(self, spec: dict, jobs_dir: Path):
        self.spec = spec
        self.jobs_dir = Path(jobs_dir)
        self.cancel_event = threading.Event()
        self._lock = threading.Lock()

    # -- identity and paths ---------------------------------------------
    @property
    def job_id(self) -> str:
        return self.spec["job_id"]

    @property
    def state(self) -> str:
        return self.spec["state"]

    @property
    def session_id(self) -> str:
        return self.spec["session_id"]

    @property
    def spec_path(self) -> Path:
        return self.jobs_dir / f"{self.job_id}.json"

    @property
    def blocks_path(self) -> Path:
        return self.jobs_dir / f"{self.job_id}.blocks"

    @property
    def ckpt_path(self) -> Path:
        return self.jobs_dir / f"{self.job_id}.ckpt.npz"

    @property
    def model_path(self) -> Path:
        return self.jobs_dir / f"{self.job_id}.model.npz"

    # -- durable state transitions --------------------------------------
    def transition(self, state: str, **fields) -> None:
        """Move to ``state`` (journalled durably before it is visible)."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            spec = dict(self.spec, state=state, **fields)
            durable_write(self.spec_path, json.dumps(spec, indent=2).encode())
            self.spec = spec

    def describe(self) -> dict:
        """The poll/status view (JSON-ready, no local paths)."""
        with self._lock:
            spec = dict(self.spec)
        keep = (
            "job_id", "session_id", "state", "sql", "table", "model",
            "strategy", "advisor", "where", "warm_start", "seed", "epochs",
            "error", "result", "spec", "grid", "grid_progress",
            "submitted_at", "started_at", "finished_at", "queue_wait_s",
        )
        return {k: spec.get(k) for k in keep if spec.get(k) is not None}


class JobManager:
    """Bounded queue + worker pool + durable journal for TRAIN jobs."""

    def __init__(
        self,
        data_dir: str | Path,
        max_queued: int = 8,
        workers: int = 2,
        checkpoint_every_tuples: int = 256,
        on_done=None,
        device: str = "ssd",
    ):
        self.jobs_dir = Path(data_dir) / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.max_queued = int(max_queued)
        self.n_workers = int(workers)
        self.checkpoint_every_tuples = int(checkpoint_every_tuples)
        #: Device model name every session's engine — and so every plan,
        #: EXPLAIN and job — is costed on (``WITH device = '...'`` overrides
        #: it per statement).  Unknown names fail here, at daemon start.
        self.device = str(device)
        device_by_name(self.device)
        #: Called as ``on_done(job, model)`` from the worker thread once a
        #: job's model file is durable and *before* the job turns ``done``
        #: (the server registers the model into the owning session's engine
        #: so PREDICT BY can address it).
        self.on_done = on_done
        # Unbounded on purpose: ``submit`` enforces ``max_queued`` itself, and
        # ``recover`` must be able to re-enqueue a saturated daemon's whole
        # journal (queued + running jobs) without blocking.
        self._queue: queue.Queue = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._running: set[str] = set()
        self._recent_runtimes: deque[float] = deque(maxlen=16)
        self._counter = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._stop.clear()
        for i in range(self.n_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"serve-job-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop: interrupt running jobs at their next batch.

        Interrupted jobs transition back to ``queued`` — their checkpoint
        carries the progress, and the next ``recover()`` resumes them.
        """
        self._stop.set()
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=timeout)
        leaked = [t.name for t in self._threads if t.is_alive()]
        self._threads = []
        if leaked:
            raise RuntimeError(f"job workers failed to stop: {leaked}")

    def recover(self) -> list[str]:
        """Load the journal; re-enqueue every non-terminal job.

        Returns the ids that were resumed.  Call before :meth:`start` so
        recovered jobs keep their original submission order (specs sort by
        id ordinal).
        """
        resumed = []
        # Only true spec files: "job_<n>.json" — the glob must not pick up
        # the block-file indexes ("job_<n>.blocks.index.json") beside them.
        spec_paths = [
            p
            for p in self.jobs_dir.glob("job_*.json")
            if re.fullmatch(r"job_\d+", p.stem)
        ]
        for spec_path in sorted(spec_paths, key=lambda p: self._ordinal(p.stem)):
            try:
                spec = json.loads(spec_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue  # a spec mid-write when the power died; skip
            job = Job(spec, self.jobs_dir)
            with self._jobs_lock:
                self._jobs[job.job_id] = job
                self._counter = max(self._counter, self._ordinal(job.job_id))
            if job.state in TERMINAL_STATES:
                continue
            if "page_bytes" not in spec:
                job.transition(
                    "failed",
                    error="journalled by an earlier release, whose jobs ran on the daemon's "
                    "own training stack; the journal format changed — resubmit the statement",
                )
                continue
            if not job.blocks_path.exists():
                job.transition("failed", error="block file lost before recovery")
                continue
            job.transition("queued", recovered=True)
            self._queue.put(job)
            resumed.append(job.job_id)
            obs.inc("serve.jobs.recovered")
        return resumed

    @staticmethod
    def _ordinal(job_id: str) -> int:
        try:
            return int(job_id.rsplit("_", 1)[1])
        except (IndexError, ValueError):
            return 0

    # ------------------------------------------------------------------
    # Submission / polling / cancellation
    # ------------------------------------------------------------------
    def submit(self, session_id: str, sql: str, asked: TrainSpec, db) -> Job:
        """Admit one TRAIN statement; raises :class:`Saturated` when full.

        ``db`` is the submitting session's engine.  The statement is planned
        there with the plain ``db.plan(asked)`` — same catalog and device as
        that session's EXPLAIN — so whatever the inline engine rejects (a
        strategy with no such plan, a WHERE matching nothing), admission
        rejects with the same message.  What the plan decided is
        folded into the journalled spec (module docstring) and the rows are
        snapshotted: the job survives the session, the daemon and later DML.
        """
        depth = self._queue.qsize()
        if depth >= self.max_queued:
            obs.inc("serve.jobs.rejected")
            raise Saturated(self._retry_after(depth), depth)

        plan = db.plan(asked)
        table = db.catalog.get(asked.table)
        dataset = table.dataset
        where_doc = None
        if plan.where is not None:
            # Resolved here, at admission: the worker (and any post-crash
            # incarnation) trains exactly the rows that qualified now.
            where_doc = dict(plan.where, predicate_doc=asked.where.to_doc())
            dataset = dataset.subset(plan.positions, suffix="where")
        resolved = replace(
            asked,
            strategy=plan.strategy,
            where=None,
            warm_start=asked.warm_start
            and self._resolve_warm_start(asked.warm_start, asked.model),
        )
        with self._jobs_lock:
            self._counter += 1
            job_id = f"job_{self._counter}"
        spec = {
            "job_id": job_id,
            "session_id": session_id,
            "state": "queued",
            "sql": sql,
            "table": asked.table,
            "model": asked.model,
            "n_tuples": dataset.n_tuples,
            # What a rebuild of the snapshot as a table needs.
            "task": dataset.task,
            "page_bytes": table.heap.page_bytes,
            "layout": table.heap.layout,
            "compress": table.heap.compress,
            # What runs, and the advisor's evidence when the statement said
            # ``auto`` — so a poll, or a post-crash recovery, can always
            # answer "why did this job run that way".
            "strategy": plan.strategy,
            "advisor": None if plan.advisor is None else plan.advisor.to_doc(),
            "where": where_doc,
            "warm_start": asked.warm_start,
            "seed": asked.seed,
            "epochs": asked.epochs,
            "spec": resolved.to_doc(),
            "grid": None if asked.grid is None else asked.grid.to_doc(),
            "checkpoint_every_tuples": self.checkpoint_every_tuples,
            "submitted_at": time.time(),
        }
        job = Job(spec, self.jobs_dir)
        # Blocks first, then the spec: a job whose spec exists always has
        # its data, so recovery never sees a spec pointing at nothing.
        write_block_file(dataset, job.blocks_path, _SNAPSHOT_BLOCK_TUPLES)
        job.transition("queued")
        with self._jobs_lock:
            self._jobs[job_id] = job
            # Re-checked under the lock every submitter takes: the depth
            # read above raced the other submitters.
            admitted = self._queue.qsize() < self.max_queued
            if admitted:
                self._queue.put(job)
        if not admitted:
            job.transition("cancelled", error="rejected: queue saturated")
            obs.inc("serve.jobs.rejected")
            raise Saturated(self._retry_after(self._queue.qsize()), self.max_queued)
        obs.inc("serve.jobs.submitted")
        obs.inc(f"serve.session.{session_id}.jobs_submitted")
        return job

    def _resolve_warm_start(self, warm_start: str, model: str) -> str:
        """Map ``WITH warm_start = 'job_N'`` to that job's model file.

        A bare path to a ``.npz`` saved by :mod:`repro.ml.persistence` is
        accepted too.  The path (not the id) is journalled, so recovery
        keeps working even if the source job is later pruned from memory.
        """
        if re.fullmatch(r"job_\d+", warm_start):
            try:
                source = self.get(warm_start)
            except KeyError:
                # Not in memory (e.g. pre-restart job) — fall back to the
                # journal's model file if it survived.
                path = self.jobs_dir / f"{warm_start}.model.npz"
                if not path.exists():
                    raise ValueError(
                        f"warm_start {warm_start!r}: unknown job and no model file"
                    ) from None
                return str(path)
            if source.state != "done":
                raise ValueError(
                    f"warm_start {warm_start!r}: job is {source.state}, not done"
                )
            if source.spec.get("model") != model:
                raise ValueError(
                    f"warm_start {warm_start!r} trained {source.spec.get('model')!r}; "
                    f"this query trains {model!r}"
                )
            return str(source.model_path)
        path = Path(warm_start)
        if path.is_file():
            return str(path)
        raise ValueError(f"warm_start {warm_start!r}: no such job or model file")

    def _retry_after(self, depth: int) -> float:
        recent = list(self._recent_runtimes)
        per_job = (sum(recent) / len(recent)) if recent else 1.0
        return round(max(0.5, per_job * (depth + 1) / max(1, self.n_workers)), 2)

    def get(self, job_id: str) -> Job:
        with self._jobs_lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def list(self, session_id: str | None = None) -> list[dict]:
        with self._jobs_lock:
            jobs = sorted(self._jobs.values(), key=lambda j: self._ordinal(j.job_id))
        return [
            j.describe()
            for j in jobs
            if session_id is None or j.session_id == session_id
        ]

    def cancel(self, job_id: str) -> dict:
        job = self.get(job_id)
        job.cancel_event.set()
        if job.state == "queued":
            # The worker loop skips cancelled jobs; journal it now so a
            # crash between here and the dequeue stays cancelled.
            job.transition("cancelled", finished_at=time.time())
            obs.inc("serve.jobs.cancelled")
        return job.describe()

    def model_bytes(self, job_id: str) -> bytes:
        job = self.get(job_id)
        if job.state != "done":
            raise ValueError(f"{job_id} is {job.state}, not done")
        return job.model_path.read_bytes()

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def running(self) -> list[str]:
        with self._jobs_lock:
            return sorted(self._running)

    def counts(self) -> dict:
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        out = {state: 0 for state in JOB_STATES}
        for j in jobs:
            out[j.state] = out.get(j.state, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is None or self._stop.is_set():
                    # A job drained during shutdown stays queued for the
                    # next recover().
                    return
                self._execute(job)
            finally:
                self._queue.task_done()

    def _execute(self, job: Job) -> None:
        if job.cancel_event.is_set() or job.state == "cancelled":
            if job.state != "cancelled":
                job.transition("cancelled", finished_at=time.time())
                obs.inc("serve.jobs.cancelled")
            return
        spec = job.spec
        wait_s = max(0.0, time.time() - spec.get("submitted_at", time.time()))
        obs.observe("serve.queue.wait_s", wait_s)
        obs.inc(f"serve.session.{job.session_id}.jobs_started")
        job.transition("running", started_at=time.time(), queue_wait_s=round(wait_s, 4))
        with self._jobs_lock:
            self._running.add(job.job_id)
        t0 = time.perf_counter()
        try:
            with obs.span("serve.job", job_id=job.job_id, model=spec["model"]):
                model, summary = self._train(job)
        except TrainInterrupted:
            if job.cancel_event.is_set():
                job.transition("cancelled", finished_at=time.time())
                obs.inc("serve.jobs.cancelled")
            else:
                # Daemon shutdown.  Progress lives in the checkpoint; hand
                # the job back to the journal so the next boot resumes it.
                job.transition("queued", interrupted=True)
        except Exception as exc:  # noqa: BLE001 - job failure is data
            job.transition("failed", error=str(exc), finished_at=time.time())
            obs.inc("serve.jobs.failed")
        else:
            durable_write(job.model_path, model_to_bytes(model))
            # Register before journalling ``done``: a client that polls
            # ``done`` may send ``PREDICT BY job_N`` in the same breath.
            if self.on_done is not None:
                self.on_done(job, model)
            job.transition(
                "done",
                finished_at=time.time(),
                result=dict(summary, wall_s=round(time.perf_counter() - t0, 4)),
            )
            with contextlib.suppress(OSError):
                job.ckpt_path.unlink()
            obs.inc("serve.jobs.completed")
            obs.inc(f"serve.session.{job.session_id}.jobs_completed")
        finally:
            self._recent_runtimes.append(max(1e-3, time.perf_counter() - t0))
            with self._jobs_lock:
                self._running.discard(job.job_id)

    def _train(self, job: Job):
        """Run (or resume) one job on the engine: ``(model, summary)``.

        The snapshot becomes a table in an engine of the job's own, built
        like the session's (page size, layout, compression) on the daemon's
        device.  ``MiniDB.train`` resumes from ``job.ckpt_path`` if an earlier
        incarnation left one; cancel and shutdown reach it as ``should_stop``.
        """
        doc = job.spec
        spec = TrainSpec.from_doc(doc["spec"])
        with MiniDB(device=device_by_name(self.device), page_bytes=doc["page_bytes"]) as db:
            db.create_table(
                spec.table,
                load_block_dataset(job.blocks_path, task=doc["task"]),
                compress=doc["compress"],
                layout=doc["layout"],
            )
            result = db.train(
                spec,
                checkpoint=CheckpointConfig(job.ckpt_path, doc["checkpoint_every_tuples"]),
                should_stop=lambda: self._stop.is_set() or job.cancel_event.is_set(),
                # A grid journals its slot progress.  A plain job's progress is
                # its checkpoint: a journal write per epoch on top would cost a
                # tenth more fsyncs per job and recover nothing.
                on_progress=(lambda slots: job.transition(job.state, grid_progress=slots))
                if spec.grid is not None
                else None,
            )
        extra, final = result.query.extra, result.history.final
        summary = {
            "epochs": result.history.epochs,
            "tuples_seen": final.tuples_seen,
            "final_train_loss": final.train_loss,
            "final_train_score": final.train_score,
        }
        if spec.grid is not None:
            board = extra["grid"]["leaderboard"]
            summary.update(
                tuples_seen=extra["hopper"]["tuples_processed"],
                schedule=result.schedule,
                grid={"n_configs": len(board), "best": board[0], "leaderboard": board},
                observed={"total_wall_s": extra["hopper"]["wall_seconds"]},
            )
        elif "advisor" in extra:  # the heap executor's measured per-epoch walls
            summary["observed"] = extra["advisor"]["observed"]
        return result.model, summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobManager(queued={self._queue.qsize()}/{self.max_queued}, "
            f"workers={self.n_workers}, jobs={len(self._jobs)})"
        )
