"""The worker-process side of the multi-process engine.

A fleet worker is one long-lived process running :func:`worker_loop`: it
idles on its task pipe, and each *armed* statement hands it an entry point,
a config and the handles of the statement's shared arrays.  The loop does
what every statement needs — fresh telemetry, its shard of the shared block
file as a :class:`~repro.core.dataset.CorgiPileDataset` (the one block-file
fill, over a private reader), the stats message home — and
the entry point (:func:`worker_main` here, ``hopper_worker_main`` for a
grid) is only its barrier protocol against the shared arrays.

A worker has two rendezvous (:class:`SyncPoints`): ``sync()`` meets every
worker *and* the coordinator, ``sync.step()`` the workers alone.  ``sync``
mode spends one ``sync.step()`` per global step — every worker keeps a
replica of ``(model, optimizer)`` and applies the averaged gradient itself
(:func:`_run_sync`) — and meets the coordinator only at the seams the
coordinator scheduled; ``epoch`` mode and the hopper meet it once per epoch
or slot.

Error discipline: any exception is reported through the results queue
*before* both barriers are aborted, so the first error the coordinator
reads is the failure itself and not a peer's broken barrier, and the
coordinator never deadlocks on a dead worker; conversely a coordinator
abort (stop event + broken barriers) ends the worker — an aborted fleet is
discarded, never re-armed.  A worker whose coordinator was killed exits by
itself, idle or mid-statement.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_ready

from .. import obs
from ..core.dataset import CorgiPileDataset
from ..obs import LoaderMetrics, StorageMetrics
from ..ml.persistence import model_from_bytes
from ..storage.blockfile import BlockFileReader
from ..storage.codec import RowStream
from .aggregate import average_gradient_slots, pack_gradients, unpack_gradients
from .shm import attach_arrays

__all__ = ["WorkerConfig", "SyncPoints", "worker_loop", "worker_main", "BARRIER_TIMEOUT_S"]

# Generous: a stuck peer is a bug, not a slow disk; the coordinator's
# no-leaked-children guard needs workers to give up rather than hang.
BARRIER_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker needs, as picklable plain data."""

    worker_id: int
    n_workers: int
    path: str
    model_blob: bytes
    seed: int
    epochs: int
    buffer_blocks: int
    mode: str  # "sync" | "epoch"
    global_batch_size: int
    schedule: object  # callable epoch -> lr (plain dataclass, picklable)
    start_epoch: int = 0
    start_step: int = 0  # sync-mode resume: global steps already applied
    # sync mode: the coordinator's optimizer (detached from its model) to
    # replicate, the step counts at which it joins, and whether it wants the
    # optimizer state there (it checkpoints).
    optimizer: object = None
    seams: tuple = ()
    ship_optimizer_state: bool = False


# ----------------------------------------------------------------------
# The fleet's worker loop
# ----------------------------------------------------------------------


def worker_loop(worker_id: int, tasks, barrier, step_barrier, stop, results) -> None:
    """One fleet process: idle on ``tasks``, run each armed statement."""
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    sync = SyncPoints(barrier, step_barrier, stop)
    try:
        sync()  # imports done: the fleet is up
        while True:
            try:
                task = tasks.recv()
            except EOFError:
                return  # the fleet was closed
            _run_statement(worker_id, *task, sync, results)
    except _CoordinatorAbort:
        pass
    except BaseException:
        results.put(("error", worker_id, traceback.format_exc()))
        # On the pipe before any peer can see a broken barrier and report that.
        results.close()
        results.join_thread()
        barrier.abort()
        step_barrier.abort()


def _exit_with_parent() -> None:
    """Die with the coordinator, even a SIGKILLed one: neither the idle
    ``recv`` nor a barrier wait may keep an orphan alive."""
    wait_ready([mp.parent_process().sentinel])
    os._exit(1)


def _run_statement(worker_id, entry, cfg, handles, label, trace, sync, results) -> None:
    """``entry``'s protocol on this worker's shard, then the stats message.

    The process outlives the statement, so its session telemetry starts
    from zero here — the message carries this statement only — and traces
    iff the coordinator does (the spans ship home in the message).
    """
    obs.reset()
    (obs.enable if trace else obs.disable)()
    loader_stats = LoaderMetrics(f"{label}-worker{worker_id}")
    storage_stats = StorageMetrics(f"{label}-worker{worker_id}")
    with CorgiPileDataset(
        cfg.path, cfg.buffer_blocks, seed=cfg.seed,
        worker_id=cfg.worker_id, n_workers=cfg.n_workers, stats=loader_stats,
        reader_factory=functools.partial(BlockFileReader, storage_stats=storage_stats),
    ) as shard:
        loader_stats.record_thread_started()
        try:
            tuples_done = entry(cfg, shard, attach_arrays(handles), sync, results)
        finally:
            loader_stats.record_thread_joined()
    tracer = obs.get_tracer()
    telemetry = {"tracer": tracer if tracer.enabled else None, "registry": obs.get_registry()}
    results.put(("stats", worker_id, loader_stats, storage_stats, tuples_done, telemetry))


def worker_main(cfg: WorkerConfig, shard, arrays, sync, results) -> int:
    """The data-parallel entry point: ``cfg.mode``'s protocol over
    ``(params, gradient slots)``; returns the tuples this worker stepped."""
    model = model_from_bytes(cfg.model_blob)
    runner = {"sync": _run_sync, "epoch": _run_epoch}[cfg.mode]
    with obs.span("worker", worker=cfg.worker_id, mode=cfg.mode):
        return runner(cfg, shard, model, *arrays, sync, results)


class _CoordinatorAbort(Exception):
    """The coordinator broke the barrier on purpose (stop event set)."""


class SyncPoints:
    """A worker's two rendezvous: ``sync()`` with every worker and the
    coordinator (``Barrier(PN + 1)``), ``sync.step()`` among the workers
    alone (``Barrier(PN)``).  Either translates a deliberate abort into
    shutdown.

    The wait itself is timed into the obs layer (histogram always, span
    when tracing): barrier waits are exactly the slack between a worker's
    busy time and the coordinator's wall-clock, so the merged timeline can
    account for them explicitly.
    """

    def __init__(self, barrier, step_barrier, stop):
        self._barrier, self._step_barrier, self._stop = barrier, step_barrier, stop

    def __call__(self) -> None:
        self._wait(self._barrier)

    def step(self) -> None:
        self._wait(self._step_barrier)

    def _wait(self, barrier) -> None:
        start = time.perf_counter()
        try:
            barrier.wait(timeout=BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            if self._stop.is_set():
                raise _CoordinatorAbort() from None
            raise
        finally:
            waited = time.perf_counter() - start
            obs.observe("parallel.barrier_wait_s", waited)
            if obs.enabled():
                obs.add_span("parallel.barrier_wait", start, start + waited)
        if self._stop.is_set():
            raise _CoordinatorAbort()


def step_shard(model, shard: CorgiPileDataset, epoch: int, lr: float) -> int:
    """One pass of local SGD over ``shard``'s fills of ``epoch`` (fused
    per-tuple kernels, visit order); returns the tuples stepped."""
    shard.set_epoch(epoch)
    count = 0
    for fill in shard.fills():
        model.step_block(fill.features_matrix(), fill.labels, lr)
        count += len(fill)
    return count


def _epoch_slices(cfg, shard, epoch: int, skip: int):
    """Yield the epoch's per-step slices of ``bs/PN`` rows, after ``skip`` steps.

    Fills are read lazily, each only when the rows before it are used up;
    whole fills that fall before the resume offset are skipped without
    touching storage (their visit order is (seed, epoch)-pure, so nothing
    needs replaying).
    """
    per_worker = cfg.global_batch_size // cfg.n_workers
    n_steps = shard.plan.sync_steps(epoch, cfg.global_batch_size)
    to_skip = skip * per_worker
    first = 0
    if to_skip:
        sizes = shard.plan.fill_sizes(epoch, cfg.worker_id)
        while first < len(sizes) and to_skip >= sizes[first]:
            to_skip -= int(sizes[first])
            first += 1
    shard.set_epoch(epoch)
    fills = shard.fills(start=first)
    stream = RowStream(lambda: next(fills, None))
    stream.skip(to_skip)
    for _ in range(skip, n_steps):
        yield stream.take(per_worker)


def _run_sync(cfg, shard, model, params, grads, sync, results) -> int:
    """Per-batch gradient averaging on replicas: one worker-only rendezvous a step.

    Every worker holds the same ``(model, optimizer)`` and applies the same
    update: write my slice-mean gradient into this step's slab, meet the
    other workers, average the slab, step.  The slabs alternate by step
    parity, so a fast worker may fill step ``t + 1``'s while a slow one
    still averages step ``t``'s — it cannot reach ``t + 2``'s without
    passing barrier ``t + 1``, which waits for the slow one.  At a seam
    (``cfg.seams``: a count of applied steps) each worker leaves its replica
    in its row of the idle slab and the coordinator joins to read them.

    The shard plan (step counts, fill sizes) is the shard's own
    ``shard.plan``: a pure function of the seed, so no plan bytes cross the
    process boundary."""
    optimizer = cfg.optimizer
    optimizer.model = model
    seams = list(reversed(cfg.seams))
    done = steps = 0

    def meet_coordinator() -> None:
        while seams and seams[-1] == steps:
            seams.pop()
            grads[steps & 1, cfg.worker_id, :] = model.parameter_vector()
            if cfg.ship_optimizer_state and cfg.worker_id == 0:
                results.put(("optimizer", 0, optimizer.state_dict()))
            sync()  # A: every replica is in the slab
            sync()  # B: the coordinator is done with them

    meet_coordinator()
    for epoch in range(cfg.start_epoch, cfg.epochs):
        lr = float(cfg.schedule(epoch))
        skip = cfg.start_step if epoch == cfg.start_epoch else 0
        for unit in _epoch_slices(cfg, shard, epoch, skip):
            slab = grads[steps & 1]
            slab[cfg.worker_id, :] = pack_gradients(
                model.gradient(unit.features_matrix(), unit.labels), model
            )
            sync.step()  # every slice mean of this step is in the slab
            optimizer.step(unpack_gradients(average_gradient_slots(slab), model), lr)
            done += len(unit)
            steps += 1
            meet_coordinator()
    return done


def _run_epoch(cfg, shard, model, params, grads, sync, results) -> int:
    """Local SGD over the whole shard; epoch-end weighted model averaging."""
    done = 0
    for epoch in range(cfg.start_epoch, cfg.epochs):
        sync()  # A: averaged params published
        model.load_parameter_vector(params)
        lr = float(cfg.schedule(epoch))
        count = step_shard(model, shard, epoch, lr)
        results.put(("model", cfg.worker_id, epoch, model.parameter_vector(), count))
        done += count
        sync()  # B: coordinator averaged the models
    return done
