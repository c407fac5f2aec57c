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
Every job owns three files under ``<data_dir>/jobs/``:

* ``<id>.json``    — the job spec + state, rewritten via
  :func:`repro.ml.persistence.durable_write` on every transition;
* ``<id>.blocks``  — the training table materialised as a block file at
  submit time (plus its ``.index.json``), so the job is self-contained and
  survives its session;
* ``<id>.ckpt.npz`` — the crash-safe training checkpoint, written on the
  ``checkpoint_every_tuples`` cadence by the streaming trainer;
* ``<id>.model.npz`` — the finished model (fetchable after any restart).

Kill the daemon at any instant and restart it over the same data dir:
``recover()`` re-enqueues every job found in a non-terminal state, and the
streaming trainer resumes from the checkpoint **bit-exactly** — the visit
order is a pure function of ``(seed, epoch)`` and checkpoint cadence never
changes the numeric result (see :mod:`repro.ml.streaming`).

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
from pathlib import Path

import numpy as np

from .. import obs
from ..core.dataloader import DataLoader
from ..core.dataset import CorgiPileDataset
from ..db.query import TrainQuery
from ..db.spec import TrainSpec
from ..ml.persistence import durable_write, model_to_bytes
from ..ml.schedules import ExponentialDecay
from ..ml.streaming import train_streaming
from ..ml.trainer import CheckpointConfig
from ..storage.blockfile import write_block_file
from ..storage.iomodel import device_by_name

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Saturated",
    "JobCancelled",
    "DaemonStopping",
    "Job",
    "JobManager",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Loader batch size when the query asks for per-tuple SGD; part of the
#: numeric contract (fused kernels flush at batch boundaries), so it is
#: recorded in the job spec and reused verbatim on resume.
_DEFAULT_LOADER_BATCH = 64


class Saturated(RuntimeError):
    """Admission control rejected the job; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float, depth: int):
        super().__init__(
            f"job queue full ({depth} queued); retry in {retry_after_s:.1f}s"
        )
        self.retry_after_s = retry_after_s
        self.depth = depth


class JobCancelled(Exception):
    """Raised inside the training loop when a cancel lands mid-TRAIN."""


class DaemonStopping(Exception):
    """Raised inside the training loop on graceful daemon shutdown."""


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
        self._queue: queue.Queue = queue.Queue(maxsize=self.max_queued)
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
            with contextlib.suppress(queue.Full):
                self._queue.put_nowait(None)
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
            if not job.blocks_path.exists():
                job.transition("failed", error="block file lost before recovery")
                continue
            job.transition("queued", recovered=True)
            self._queue.put(job)  # recovery happens before clients connect
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
    def submit(self, session_id: str, sql: str, query: TrainQuery, db) -> Job:
        """Admit one TRAIN statement; raises :class:`Saturated` when full.

        ``db`` is the submitting session's engine.  The statement is planned
        there (``db.plan(query, for_job=True)``: same catalog, device and κ
        history as that session's EXPLAIN), so the journal records the
        decisions of the plan that runs — a bad statement (unknown model,
        bad grid, a strategy the block-file executor cannot run, a WHERE
        matching nothing) is a typed error at admission.  The rows the plan
        trains over are materialised into the job's own block file so the
        job survives the session (and the daemon).
        """
        depth = self._queue.qsize()
        if depth >= self.max_queued:
            retry_after = self._retry_after(depth)
            obs.inc("serve.jobs.rejected")
            raise Saturated(retry_after, depth)

        plan = db.plan(query, for_job=True)
        train_spec = plan.spec
        dataset = db.catalog.get(train_spec.table).dataset
        where_doc = None
        if plan.where is not None:
            # The job's block file IS the filtered subset resolved here, at
            # admission: the worker (and any post-crash incarnation) trains
            # exactly the rows that qualified at submit time, immune to
            # later DML on the session's table.
            where_doc = dict(plan.where, predicate_doc=train_spec.where.to_doc())
            dataset = dataset.subset(plan.positions, suffix="where")
        warm_start_path = None
        if train_spec.warm_start:
            warm_start_path = self._resolve_warm_start(
                train_spec.warm_start, train_spec.model
            )
        grid = train_spec.grid
        with self._jobs_lock:
            self._counter += 1
            job_id = f"job_{self._counter}"
        spec = {
            "job_id": job_id,
            "session_id": session_id,
            "state": "queued",
            "sql": sql,
            "table": train_spec.table,
            "model": train_spec.model,
            "task": dataset.task,
            "n_features": dataset.n_features,
            "n_classes": (
                dataset.n_classes if dataset.task != "regression" else None
            ),
            "n_tuples": dataset.n_tuples,
            # What runs, and the advisor's evidence when the statement said
            # ``auto`` — so a poll, or a post-crash recovery, can always
            # answer "why did this job run that way".
            "strategy": plan.strategy,
            "advisor": None if plan.advisor is None else plan.advisor.to_doc(),
            "where": where_doc,
            "warm_start": train_spec.warm_start,
            "warm_start_path": warm_start_path,
            "seed": train_spec.seed,
            "epochs": train_spec.epochs,
            "learning_rate": train_spec.lr,
            "decay": train_spec.decay,
            "l2": train_spec.l2,
            "spec": train_spec.to_doc(),
            "grid": None if grid is None else grid.to_doc(),
            "hopper_workers": plan.n_shards if grid is not None else None,
            "loader_batch": (
                train_spec.batch_size
                if train_spec.batch_size > 1
                else _DEFAULT_LOADER_BATCH
            ),
            "tuples_per_block": plan.tuples_per_block,
            "buffer_blocks": plan.buffer_blocks,
            "checkpoint_every_tuples": self.checkpoint_every_tuples,
            "submitted_at": time.time(),
        }
        job = Job(spec, self.jobs_dir)
        # Blocks first, then the spec: a job whose spec exists always has
        # its data, so recovery never sees a spec pointing at nothing.
        write_block_file(dataset, job.blocks_path, plan.tuples_per_block)
        job.transition("queued")
        with self._jobs_lock:
            self._jobs[job_id] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            # Lost the race against other submitters between the depth
            # check and the put; reject exactly like the early check.
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
        except JobCancelled:
            job.transition("cancelled", finished_at=time.time())
            obs.inc("serve.jobs.cancelled")
        except DaemonStopping:
            # Progress lives in the checkpoint; hand the job back to the
            # journal so the restarted daemon resumes it.
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
        """Run (or resume) one TRAIN job through the streaming trainer."""
        spec = job.spec
        if spec.get("grid"):
            return self._train_grid(job)
        model = TrainSpec.from_doc(spec["spec"]).build_model(
            spec["n_features"], spec["n_classes"]
        )
        if spec.get("warm_start_path"):
            from ..ml.persistence import load_model

            warm = load_model(spec["warm_start_path"])
            if type(warm).__name__ != type(model).__name__ or getattr(
                warm, "n_features", None
            ) != getattr(model, "n_features", None):
                raise ValueError(
                    f"warm_start {spec.get('warm_start')!r} is a "
                    f"{type(warm).__name__}; the job trains a "
                    f"{type(model).__name__} over {spec['n_features']} features"
                )
            model = warm
        resume = job.ckpt_path if job.ckpt_path.exists() else None
        epoch_marks: list[float] = []
        with CorgiPileDataset(
            job.blocks_path, buffer_blocks=spec["buffer_blocks"], seed=spec["seed"]
        ) as view:

            def loader_factory(epoch: int):
                epoch_marks.append(time.perf_counter())
                view.set_epoch(epoch)
                return self._interruptible(
                    DataLoader(view, batch_size=spec["loader_batch"]), job
                )

            history = train_streaming(
                model,
                loader_factory,
                epochs=spec["epochs"],
                schedule=ExponentialDecay(spec["learning_rate"], spec["decay"]),
                per_tuple=True,
                fused=True,
                checkpoint=CheckpointConfig(
                    job.ckpt_path, every_tuples=spec["checkpoint_every_tuples"]
                ),
                resume_from=resume,
            )
        marks = epoch_marks + [time.perf_counter()]
        summary = {
            "epochs": len(history.records),
            "tuples_seen": (
                history.records[-1].tuples_seen if history.records else 0
            ),
            # Measured per-epoch walls (loader-to-loader boundaries) — the
            # journal-side twin of the engine's advisor "observed" doc.
            "observed": {
                "epoch_wall_s": [
                    round(b - a, 6) for a, b in zip(marks, marks[1:])
                ],
                "total_wall_s": round(marks[-1] - marks[0], 6) if epoch_marks else 0.0,
            },
        }
        # Final quality numbers come from the job's own on-disk copy, so
        # they are identical no matter which daemon incarnation ran it.
        eval_set = _block_file_arrays(job.blocks_path, spec)
        if eval_set is not None:
            X, y = eval_set
            summary["final_train_loss"] = float(model.loss(X, y))
            summary["final_train_score"] = float(model.score(X, y))
        return model, summary

    def _train_grid(self, job: Job):
        """Run (or resume) a ``TRAIN ... WITH grid`` job via the model hopper.

        Progress is journalled per sub-epoch slot (``grid_progress``), the
        hopper checkpoint lives at the job's usual ``.ckpt.npz`` path, and a
        SIGKILL + ``recover()`` resumes the slot loop bit-exactly — the
        same durability contract as a plain streaming job.
        """
        from ..parallel import HopperEngine

        spec = job.spec
        tspec = TrainSpec.from_doc(spec["spec"])
        configs = tspec.grid.configs()
        resolved = [c.resolve(tspec) for c in configs]
        models = [
            tspec.build_model(spec["n_features"], spec["n_classes"], l2=r["l2"])
            for r in resolved
        ]
        stop = self._stop

        def on_slot(slot: int, progress: dict) -> None:
            if stop.is_set():
                raise DaemonStopping()
            if job.cancel_event.is_set():
                raise JobCancelled()
            job.transition(job.state, grid_progress=progress)

        result = HopperEngine(
            job.blocks_path,
            models,
            lrs=[r["lr"] for r in resolved],
            decays=[r["decay"] for r in resolved],
            epochs=spec["epochs"],
            n_workers=spec["hopper_workers"],
            buffer_blocks=spec["buffer_blocks"],
            seed=spec["seed"],
            labels=[c.label() for c in configs],
            checkpoint_path=job.ckpt_path,
            task=spec.get("task", "binary"),
            on_slot=on_slot,
        ).run(resume=True)
        leaderboard = result.leaderboard()
        best = leaderboard[0]
        model = result.models[best["config"]]
        summary = {
            "epochs": spec["epochs"],
            "tuples_seen": result.tuples_processed,
            "schedule": result.schedule.to_doc(),
            "grid": {
                "n_configs": len(configs),
                "best": {k: v for k, v in best.items() if k != "curve"},
                "leaderboard": [
                    {k: v for k, v in row.items() if k != "curve"}
                    for row in leaderboard
                ],
            },
            "observed": {
                "slot_wall_s": [round(w, 6) for w in result.slot_walls],
                "total_wall_s": round(result.wall_seconds, 6),
            },
        }
        if best["final_train_loss"] is not None:
            summary["final_train_loss"] = best["final_train_loss"]
            summary["final_train_score"] = best["final_train_score"]
        return model, summary

    def _interruptible(self, loader, job: Job):
        """Yield batches, surfacing cancel/stop between batches."""
        stop = self._stop

        def generate():
            for batch in loader:
                if stop.is_set():
                    raise DaemonStopping()
                if job.cancel_event.is_set():
                    raise JobCancelled()
                yield batch

        return generate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobManager(queued={self._queue.qsize()}/{self.max_queued}, "
            f"workers={self.n_workers}, jobs={len(self._jobs)})"
        )


def _block_file_arrays(path: Path, spec: dict):
    """Materialise (X, y) from a job's block file for final evaluation."""
    try:
        from ..parallel.engine import load_block_dataset

        dataset = load_block_dataset(path, task=spec.get("task", "binary"))
    except Exception:  # noqa: BLE001 - evaluation is best-effort
        return None
    return dataset.X, np.asarray(dataset.y)
