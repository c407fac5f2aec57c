"""The worker-process side of the multi-process engine.

``worker_main`` is a module-level function (spawn-picklable) that each
worker process runs: rebuild the model from its blob, open a private
:class:`~repro.storage.blockfile.BlockFileReader` over the shared block
file, derive the shard plan locally (it is a pure function of the seed, so
no plan bytes ever cross the process boundary), and execute the configured
aggregation mode against the shared-memory vectors under the coordinator's
barrier protocol.

Error discipline: any exception is reported through the results queue and
the barrier is aborted so the coordinator never deadlocks on a dead
worker; conversely a coordinator abort (stop event + broken barrier) is a
clean shutdown path, after which the worker still ships its stats home.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..obs import LoaderMetrics, StorageMetrics
from ..ml.persistence import model_from_bytes
from ..storage.blockfile import BlockFileReader
from ..storage.codec import RowStream, TupleBatch
from .aggregate import pack_gradients
from .plan import ShardPlanner
from .shm import slab_view, vector_view

__all__ = ["WorkerConfig", "ShardFetcher", "worker_main", "BARRIER_TIMEOUT_S"]

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
    mode: str  # "sync" | "async" | "epoch"
    global_batch_size: int
    schedule: object  # callable epoch -> lr (plain dataclass, picklable)
    start_epoch: int = 0
    start_step: int = 0  # sync-mode resume: global steps already applied
    extra: dict = field(default_factory=dict)


class ShardFetcher:
    """Reads one worker's buffer fills as visit-ordered batches.

    One fill = one tuple-shuffle buffer: the group's blocks are read
    through the worker's own reader (each block once), concatenated, and
    gathered in the fill's shuffled visit order using the block file's
    contiguous-id arithmetic (``row = base[block] + id - block_start``).
    """

    def __init__(
        self,
        reader: BlockFileReader,
        tuples_per_block: int,
        loader_stats: LoaderMetrics | None = None,
    ):
        self.reader = reader
        self.tuples_per_block = int(tuples_per_block)
        self.loader_stats = loader_stats

    def fetch_fill(self, group: np.ndarray, indices: np.ndarray) -> TupleBatch:
        """One fill, rows in ``indices`` (visit) order."""
        blocks = [self.reader.read_block_batch(int(b)) for b in group]
        # block id -> the block's first row in the concatenation
        base = np.empty(self.reader.n_blocks, dtype=np.int64)
        base[group] = np.cumsum([0] + [len(b) for b in blocks[:-1]])
        block_of, row = np.divmod(np.asarray(indices, dtype=np.int64), self.tuples_per_block)
        if self.loader_stats is not None:
            self.loader_stats.record_buffer_filled(int(row.size))
            self.loader_stats.record_buffer_drained(int(row.size))
        return TupleBatch.concat(blocks).take(base[block_of] + row)


# ----------------------------------------------------------------------
# Worker process entry point
# ----------------------------------------------------------------------


def worker_main(cfg: WorkerConfig, param_raw, grad_raw, barrier, stop, results) -> None:
    """Entry point executed inside each spawned worker process."""
    if cfg.extra.get("trace"):
        # Spawned processes start with a fresh, disabled session tracer;
        # turning it on here makes every span below land in this worker's
        # local buffer, shipped home with the stats message.
        obs.enable()
    loader_stats = LoaderMetrics(f"parallel-worker{cfg.worker_id}")
    storage_stats = StorageMetrics(f"parallel-worker{cfg.worker_id}")
    tuples_done = 0
    reader = None
    try:
        model = model_from_bytes(cfg.model_blob)
        reader = BlockFileReader(cfg.path, storage_stats=storage_stats)
        planner = ShardPlanner.for_block_file(
            cfg.path, cfg.n_workers, cfg.buffer_blocks, seed=cfg.seed
        )
        fetcher = ShardFetcher(reader, planner.tuples_per_block, loader_stats)
        loader_stats.record_thread_started()
        runner = {"sync": _run_sync, "async": _run_async, "epoch": _run_epoch}[cfg.mode]
        with obs.span("worker", worker=cfg.worker_id, mode=cfg.mode):
            tuples_done = runner(cfg, planner, fetcher, model, param_raw, grad_raw, barrier, stop, results)
    except _CoordinatorAbort:
        pass  # clean shutdown requested; fall through to ship stats
    except BaseException:
        barrier.abort()
        results.put(("error", cfg.worker_id, traceback.format_exc()))
        return
    finally:
        if reader is not None:
            reader.close()
        loader_stats.record_thread_joined()
    results.put(
        (
            "stats",
            cfg.worker_id,
            loader_stats,
            storage_stats,
            tuples_done,
            _obs_payload(),
        )
    )


def _obs_payload() -> dict:
    """This process's telemetry, picklable for the results queue."""
    tracer = obs.get_tracer()
    return {
        "tracer": tracer if tracer.enabled else None,
        "registry": obs.get_registry(),
    }


class _CoordinatorAbort(Exception):
    """The coordinator broke the barrier on purpose (stop event set)."""


def _sync_point(barrier, stop) -> None:
    """One barrier rendezvous; translate a deliberate abort into shutdown.

    The wait itself is timed into the obs layer (histogram always, span
    when tracing): barrier waits are exactly the slack between a worker's
    busy time and the coordinator's wall-clock, so the merged timeline can
    account for them explicitly.
    """
    start = time.perf_counter()
    try:
        barrier.wait(timeout=BARRIER_TIMEOUT_S)
    except threading.BrokenBarrierError:
        if stop.is_set():
            raise _CoordinatorAbort() from None
        raise
    finally:
        waited = time.perf_counter() - start
        obs.observe("parallel.barrier_wait_s", waited)
        if obs.enabled():
            obs.add_span("parallel.barrier_wait", start, start + waited)
    if stop.is_set():
        raise _CoordinatorAbort()


def _fill_stream(fetcher: ShardFetcher, fills) -> RowStream:
    """``fills`` (planned ``(group, indices)`` pairs) as a row stream, each
    fetched only when the rows before it are used up."""
    fetched = (fetcher.fetch_fill(group, indices) for group, indices in fills)
    return RowStream(lambda: next(fetched, None))


def _epoch_slices(cfg, planner, fetcher, epoch: int, skip: int):
    """Yield the epoch's per-step slices of ``bs/PN`` rows, after ``skip`` steps.

    Fills are fetched lazily; whole fills that fall before the resume
    offset are skipped without touching storage (their visit order is
    (seed, epoch)-pure, so nothing needs replaying).
    """
    per_worker = cfg.global_batch_size // cfg.n_workers
    n_steps = planner.sync_steps(epoch, cfg.global_batch_size)
    to_skip = skip * per_worker
    fills = planner.worker_buffer_fills(epoch, cfg.worker_id)
    first = 0
    while first < len(fills) and to_skip >= fills[first][1].size:
        to_skip -= int(fills[first][1].size)
        first += 1
    stream = _fill_stream(fetcher, fills[first:])
    stream.skip(to_skip)
    for _ in range(skip, n_steps):
        yield stream.take(per_worker)


def _run_sync(cfg, planner, fetcher, model, param_raw, grad_raw, barrier, stop, results) -> int:
    """Per-batch gradient averaging under the two-barrier step protocol."""
    params = vector_view(param_raw)
    grads = slab_view(grad_raw, cfg.n_workers)
    done = 0
    for epoch in range(cfg.start_epoch, cfg.epochs):
        skip = cfg.start_step if epoch == cfg.start_epoch else 0
        for unit in _epoch_slices(cfg, planner, fetcher, epoch, skip):
            _sync_point(barrier, stop)  # A: coordinator published params
            model.load_parameter_vector(params)
            grads[cfg.worker_id, :] = pack_gradients(
                model.gradient(unit.features_matrix(), unit.labels), model
            )
            done += len(unit)
            _sync_point(barrier, stop)  # B: all gradient slots ready
    return done


def _run_async(cfg, planner, fetcher, model, param_raw, grad_raw, barrier, stop, results) -> int:
    """Hogwild-style delta pushes; barriers only frame whole epochs."""
    params = vector_view(param_raw)
    per_worker = max(1, cfg.global_batch_size // cfg.n_workers)
    done = 0
    for epoch in range(cfg.start_epoch, cfg.epochs):
        _sync_point(barrier, stop)  # A: epoch start, params current
        lr = float(cfg.schedule(epoch))
        stream = _fill_stream(fetcher, planner.worker_buffer_fills(epoch, cfg.worker_id))
        # ``pull`` never crosses a fill: a step is <= per_worker rows of one.
        while (unit := stream.pull(per_worker)) is not None:
            before = np.array(params)  # racy snapshot, by design
            model.load_parameter_vector(before)
            model.step_block(unit.features_matrix(), unit.labels, lr)
            params += model.parameter_vector() - before  # racy add, by design
            done += len(unit)
        _sync_point(barrier, stop)  # B: epoch end, coordinator evaluates
    return done


def _run_epoch(cfg, planner, fetcher, model, param_raw, grad_raw, barrier, stop, results) -> int:
    """Local SGD over the whole shard; epoch-end weighted model averaging."""
    params = vector_view(param_raw)
    done = 0
    for epoch in range(cfg.start_epoch, cfg.epochs):
        _sync_point(barrier, stop)  # A: averaged params published
        model.load_parameter_vector(params)
        lr = float(cfg.schedule(epoch))
        count = 0
        for group, indices in planner.worker_buffer_fills(epoch, cfg.worker_id):
            fill = fetcher.fetch_fill(group, indices)
            # fused per-tuple kernels, visit order
            model.step_block(fill.features_matrix(), fill.labels, lr)
            count += len(fill)
        results.put(("model", cfg.worker_id, epoch, model.parameter_vector(), count))
        done += count
        _sync_point(barrier, stop)  # B: coordinator averaged the models
    return done
