"""The spawned workers of one run: what both coordinators do with them.

:class:`~repro.parallel.engine.ParallelTrainer` and
:class:`~repro.parallel.hopper.HopperEngine` differ in what moves through
shared memory; how they own their worker processes is identical, and lives
here once — spawn the fleet around one barrier / stop event / results queue,
meet it at barriers, translate a broken barrier into :class:`WorkerError`
with the worker's traceback, and on the way out drain every worker's stats
and reap every child (no leaked processes, whatever path the run took).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time

from .. import obs
from ..ml.trainer import TrainInterrupted
from ..obs import LoaderMetrics, StorageMetrics
from .worker import BARRIER_TIMEOUT_S

__all__ = ["WorkerError", "WorkerFleet"]

# How long the coordinator waits for end-of-run stats before declaring a
# worker lost (it then terminates stragglers rather than leaking them).
_COLLECT_TIMEOUT_S = 60.0


class WorkerError(RuntimeError):
    """A worker process died or raised; carries its traceback text."""


class WorkerFleet:
    """``len(configs)`` spawned processes plus the primitives they share."""

    def __init__(
        self,
        target,
        configs: list,
        shared: tuple,
        *,
        label: str,
        start_method: str = "spawn",
        should_stop=None,
    ):
        """Start ``target(config, *shared, barrier, stop, results)`` per config.

        ``should_stop`` is probed before every rendezvous; once it returns
        true the run ends with :class:`~repro.ml.trainer.TrainInterrupted`
        (progress is whatever the coordinator last checkpointed).
        """
        ctx = mp.get_context(start_method)
        self.label = label
        self.should_stop = should_stop
        self.barrier = ctx.Barrier(len(configs) + 1)
        self.stop = ctx.Event()
        self.results = ctx.Queue()
        self.procs = [
            ctx.Process(
                target=target,
                args=(config, *shared, self.barrier, self.stop, self.results),
                daemon=True,
                name=f"repro-{label}-w{w}",
            )
            for w, config in enumerate(configs)
        ]
        for proc in self.procs:
            proc.start()

    def rendezvous(self) -> None:
        """Meet every worker at the barrier (one side of a sync point)."""
        if self.should_stop is not None and self.should_stop():
            raise TrainInterrupted(f"{self.label} run stopped at a sync point")
        try:
            self.barrier.wait(timeout=BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            raise self._worker_failure() from None

    def abort(self) -> None:
        """Release every worker into its clean-shutdown path."""
        self.stop.set()
        self.barrier.abort()

    def failed(self, worker_id, traceback_text: str) -> WorkerError:
        return WorkerError(f"{self.label} worker {worker_id} failed:\n{traceback_text}")

    def _worker_failure(self) -> WorkerError:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                msg = self.results.get(timeout=0.2)
            except queue_mod.Empty:
                continue
            if msg[0] == "error":
                return self.failed(msg[1], msg[2])
        return WorkerError(f"a {self.label} worker died without reporting an error")

    def collect(self):
        """Drain worker stats and reap every child (leak-free by contract).

        Returns ``(per_worker, loader_stats, storage_stats, tuples)``.
        """
        per_worker: list[dict] = []
        merged_loader = LoaderMetrics(self.label)
        merged_storage = StorageMetrics(self.label)
        worker_tuples = 0
        deadline = time.monotonic() + _COLLECT_TIMEOUT_S
        got = 0
        error: WorkerError | None = None
        while got < len(self.procs) and time.monotonic() < deadline:
            try:
                msg = self.results.get(timeout=0.5)
            except queue_mod.Empty:
                if not any(p.is_alive() for p in self.procs) and self.results.empty():
                    break
                continue
            if msg[0] == "error":
                error = error or self.failed(msg[1], msg[2])
                got += 1
                continue
            if msg[0] != "stats":
                continue  # stale model message from an aborted epoch
            _, worker_id, loader, storage, tuples_done, payload = msg
            merged_loader.merge(loader)
            merged_storage.merge(storage)
            self._merge_obs_payload(worker_id, payload)
            worker_tuples += int(tuples_done)
            per_worker.append(
                {
                    "worker_id": worker_id,
                    "tuples": int(tuples_done),
                    "loader": loader.as_dict(),
                    "storage": storage.as_dict(),
                }
            )
            got += 1
        for proc in self.procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - defensive reaping
                proc.terminate()
                proc.join(timeout=5.0)
        per_worker.sort(key=lambda d: d["worker_id"])
        if error is not None and not self.stop.is_set():
            raise error
        return per_worker, merged_loader, merged_storage, worker_tuples

    @staticmethod
    def _merge_obs_payload(worker_id: int, payload: dict) -> None:
        """Fold one worker's shipped telemetry into the session obs state.

        Worker spans keep their parent links and are stamped
        ``worker=<id>``; counters/gauges/histograms fold into the session
        registry — so a parallel run produces one merged timeline and one
        metrics snapshot.
        """
        if payload["tracer"] is not None and obs.enabled():
            obs.get_tracer().merge(payload["tracer"], worker=worker_id)
        obs.get_registry().merge(payload["registry"])
