"""The worker fleet: ``PN`` processes spawned once, re-armed per statement.

:class:`~repro.parallel.engine.ParallelTrainer` and
:class:`~repro.parallel.hopper.HopperEngine` differ in what moves through
shared memory; how they own their worker processes is identical, and lives
here once.  A fleet is ``PN`` idle :func:`~repro.parallel.worker.worker_loop`
processes around two barriers, a stop event and a results queue:
``barrier`` (``PN + 1`` parties) is where the coordinator meets the workers
(:meth:`WorkerFleet.rendezvous`), ``step_barrier`` (``PN``) is the workers'
own, which the coordinator never waits on.  A statement *arms* the fleet
(entry point, per-worker config, shared-array handles), meets it at
``barrier``, and *collects* every worker's stats — after which the workers
are idle again and the next statement pays no spawn.  Any abort (a worker's
error, a stop request, a crash) closes the fleet instead: a broken barrier
is not reusable, so the owner spawns a fresh one next time.  ``close()``
aborts both barriers and reaps every child whatever state it is in (no
leaked processes).
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import queue as queue_mod
import threading
import time

from .. import obs
from ..ml.trainer import TrainInterrupted
from ..obs import LoaderMetrics, StorageMetrics
from .worker import BARRIER_TIMEOUT_S, worker_loop

__all__ = ["WorkerError", "WorkerFleet", "running_fleet"]

# ``fork`` would copy the daemon's threads' locks into the workers.
_START_METHOD = "spawn"

# How long the coordinator waits for end-of-run stats before declaring a
# worker lost.
_COLLECT_TIMEOUT_S = 60.0

# How long ``close()`` lets workers leave by themselves before terminating.
_CLOSE_JOIN_S = 2.0


class WorkerError(RuntimeError):
    """A worker process died or raised; carries its traceback text."""


class WorkerFleet:
    """``n_workers`` spawned processes plus the primitives they share."""

    def __init__(self, n_workers: int):
        ctx = mp.get_context(_START_METHOD)
        self.n_workers = int(n_workers)
        self.label = "fleet"
        self.should_stop = None
        self.closed = False
        self._statements = 0
        self.barrier = ctx.Barrier(self.n_workers + 1)
        self.step_barrier = ctx.Barrier(self.n_workers)
        self.stop = ctx.Event()
        self.results = ctx.Queue()
        self.procs = []
        self._tasks = []
        with obs.span("parallel.fleet.spawn", n_workers=self.n_workers):
            for w in range(self.n_workers):
                # A pipe, not a queue: sending needs no feeder thread in the
                # coordinator, and closing it is the idle worker's exit signal.
                receive, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=worker_loop,
                    args=(w, receive, self.barrier, self.step_barrier, self.stop, self.results),
                    daemon=True,
                    name=f"repro-parallel-w{w}",
                )
                proc.start()
                receive.close()
                self.procs.append(proc)
                self._tasks.append(send)
            self.pids = [proc.pid for proc in self.procs]
            try:
                self.rendezvous()  # every worker has finished importing
            except BaseException:
                self.close()
                raise
        obs.inc("parallel.fleet.spawns")

    def arm(self, entry, configs: list, handles: list, *, label: str, should_stop=None) -> None:
        """Start one statement: worker ``w`` runs ``entry`` on ``configs[w]``.

        ``handles`` name the statement's shared arrays
        (:func:`~repro.parallel.shm.shared_arrays`).  ``should_stop`` is
        probed before every rendezvous; once it returns true the run ends
        with :class:`~repro.ml.trainer.TrainInterrupted` (progress is
        whatever the coordinator last checkpointed).
        """
        if self.closed:
            raise ValueError("cannot arm a closed fleet")
        if len(configs) != self.n_workers:
            raise ValueError(f"{len(configs)} configs for a {self.n_workers}-worker fleet")
        self.label, self.should_stop = label, should_stop
        if self._statements:
            obs.inc("parallel.fleet.reuses")
        self._statements += 1
        try:
            for send, config in zip(self._tasks, configs):
                send.send((entry, config, handles, label, obs.enabled()))
        except OSError:
            raise WorkerError(f"a {label} worker died while idle") from None

    def rendezvous(self) -> None:
        """Meet every worker at ``barrier`` (one side of a sync point)."""
        if self.should_stop is not None and self.should_stop():
            raise TrainInterrupted(f"{self.label} run stopped at a sync point")
        try:
            self.barrier.wait(timeout=BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            raise self._worker_failure() from None

    def receive(self, timeout: float) -> tuple:
        """The next worker message.  A worker's error report raises, and so
        does ``timeout`` seconds of silence or a worker found dead."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                msg = self.results.get(timeout=0.5)
            except queue_mod.Empty:
                dead = not all(p.is_alive() for p in self.procs) and self.results.empty()
                if dead or time.monotonic() > deadline:
                    raise WorkerError(f"a {self.label} worker died or went silent") from None
                continue
            if msg[0] == "error":
                raise WorkerError(f"{self.label} worker {msg[1]} failed:\n{msg[2]}")
            return msg

    def _worker_failure(self) -> WorkerError:
        """Why the barrier broke: the failed worker's report, once found
        among whatever else was in flight."""
        try:
            while True:
                self.receive(5.0)
        except WorkerError as exc:
            return exc

    def collect(self):
        """End one statement: every worker's stats, leaving the fleet idle.

        Returns ``(per_worker, loader_stats, storage_stats, tuples)``.
        """
        per_worker: list[dict] = []
        merged_loader = LoaderMetrics(self.label)
        merged_storage = StorageMetrics(self.label)
        worker_tuples = 0
        while len(per_worker) < self.n_workers:
            msg = self.receive(_COLLECT_TIMEOUT_S)
            _, worker_id, loader, storage, tuples_done, telemetry = msg
            merged_loader.merge(loader)
            merged_storage.merge(storage)
            # Worker spans keep their parent links and are stamped
            # ``worker=<id>``; its registry folds into the session's — one
            # merged timeline, one metrics snapshot.  The worker's scopes
            # forwarded their events to that registry as they happened, so
            # merging the scopes above counts nothing twice.
            if telemetry["tracer"] is not None and obs.enabled():
                obs.get_tracer().merge(telemetry["tracer"], worker=worker_id)
            obs.merge(obs.get_registry(), telemetry["registry"])
            worker_tuples += int(tuples_done)
            per_worker.append(
                {
                    "worker_id": worker_id,
                    "tuples": int(tuples_done),
                    "loader": loader.as_dict(),
                    "storage": storage.as_dict(),
                }
            )
        self.should_stop = None  # the statement's closure must not outlive it
        per_worker.sort(key=lambda d: d["worker_id"])
        return per_worker, merged_loader, merged_storage, worker_tuples

    def close(self) -> None:
        """Stop and reap every worker, idle or mid-statement (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self.should_stop = None
        self.stop.set()
        self.barrier.abort()  # workers at a sync point leave through it,
        self.step_barrier.abort()  # whichever of the two it is
        for send in self._tasks:
            send.close()  # idle workers read EOF
        deadline = time.monotonic() + _CLOSE_JOIN_S
        for proc in self.procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


@contextlib.contextmanager
def running_fleet(fleet: WorkerFleet | None, n_workers: int):
    """The fleet one run executes on: the caller's, or one opened for this
    run and closed on the way out.  Whatever aborts the run closes the fleet
    either way — its owner spawns a fresh one for the next statement."""
    own = fleet is None
    if own:
        fleet = WorkerFleet(n_workers)
    try:
        yield fleet
    except BaseException:
        fleet.close()
        raise
    finally:
        if own:
            fleet.close()
