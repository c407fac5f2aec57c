"""Model-hopper parallelism: S models hopping across P CorgiPile shards.

Cerebro-style model-hopper parallelism trains many model configurations in
roughly one data pass: each worker keeps streaming *its own* shard's
blocks (CorgiPile's §5 buffer-fill order, untouched), and it is the model
states — small parameter vectors — that move between workers at sub-epoch
barriers, not the data.

The schedule is a **staggered pipeline**, not a rotation.  Every model's
canonical visit stream is::

    [(epoch e, shard w) for e in range(E) for w in range(P)]

and model ``m`` simply runs ``m`` slots behind model ``0``: at global slot
``t`` it processes stream position ``p = t - m`` (when ``0 <= p < E*P``),
i.e. epoch ``p // P`` on shard ``p % P``.  Two facts fall out:

* with ``S <= P`` no two models ever want the same shard in the same slot
  (distinct ``m`` at fixed ``t`` give distinct ``p % P``), so the slot
  assignment is collision-free and every model visits every shard exactly
  once per epoch; and
* every model traverses the *identical* stream a solo run (``S = 1``,
  same ``P``, same seed) traverses — so each grid config's final weights
  are bit-identical to training that config alone.  The price is a
  pipeline fill/drain bubble: ``E*P + S - 1`` slots instead of ``E*P``.

Runtime protocol (the ``Barrier(P + 1)`` pair
:class:`~repro.parallel.engine.ParallelTrainer` frames its seams with):
an ``S x dim`` shared-memory slab holds the hopping parameter vectors; per
slot the coordinator and the ``P`` workers meet at two barriers::

    coordinator                          worker w
    barrier A  ──────────┬───────────▶   barrier A
                         │               m = model_at(w, t): load slab[m],
                         │               step over this epoch's fills,
    barrier B  ◀─────────┴───────────    write slab[m], barrier B
    evaluate models that completed an epoch, checkpoint, on_slot()

Checkpoints persist the whole slab plus per-model histories atomically
(:func:`~repro.ml.persistence.durable_write`), so a SIGKILLed grid resumes
at the last completed slot and finishes bit-exact.

:func:`run_hopper_inprocess` executes the same schedule serially in one
process — the reference for equivalence tests.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import obs
from ..core.dataset import CorgiPileDataset
from ..obs import LoaderMetrics, StorageMetrics
from ..ml.models.base import SupervisedModel
from ..ml.persistence import durable_write, model_from_bytes, model_to_bytes
from ..ml.trainer import ConvergenceHistory, EpochRecord, epoch_record
from .engine import load_block_dataset
from .fleet import WorkerFleet, running_fleet
from .plan import ShardPlanner
from .shm import shared_arrays
from .worker import step_shard

__all__ = [
    "HopperSchedule",
    "HopperWorkerConfig",
    "HopperResult",
    "HopperEngine",
    "hopper_worker_main",
    "run_hopper_inprocess",
]

_CKPT_VERSION = 1


# ----------------------------------------------------------------------
# The schedule (pure arithmetic; shared by workers, coordinator, tests)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HopperSchedule:
    """The staggered-pipeline slot assignment for S models over P shards."""

    n_models: int
    n_workers: int
    epochs: int

    def __post_init__(self) -> None:
        if self.n_models <= 0:
            raise ValueError("n_models must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.n_workers < self.n_models:
            raise ValueError(
                f"need n_workers >= n_models for a collision-free hop "
                f"schedule (got P={self.n_workers} < S={self.n_models})"
            )

    # -- derived sizes ---------------------------------------------------
    @property
    def stream_length(self) -> int:
        """Positions in one model's canonical visit stream (``E * P``)."""
        return self.epochs * self.n_workers

    @property
    def total_slots(self) -> int:
        """Global slots including the pipeline fill/drain bubble."""
        return self.stream_length + self.n_models - 1

    @property
    def bubble_ratio(self) -> float:
        """Slot overhead vs a single model's data pass: ``>= 1.0``."""
        return self.total_slots / self.stream_length

    # -- the assignment --------------------------------------------------
    def position(self, model: int, slot: int) -> int | None:
        """Model ``model``'s stream position at ``slot`` (None = bubble)."""
        p = slot - model
        return p if 0 <= p < self.stream_length else None

    def model_at(self, worker: int, slot: int) -> int | None:
        """Which model worker ``worker`` hosts at ``slot`` (None = idle).

        At most one model matches because distinct models at a fixed slot
        sit at distinct stream positions, hence distinct shards mod P.
        """
        for m in range(self.n_models):
            p = self.position(m, slot)
            if p is not None and p % self.n_workers == worker:
                return m
        return None

    def epoch_of(self, position: int) -> int:
        return position // self.n_workers

    def shard_of(self, position: int) -> int:
        return position % self.n_workers

    def completes_epoch(self, model: int, slot: int) -> int | None:
        """The epoch ``model`` finishes at the end of ``slot``, if any."""
        p = self.position(model, slot)
        if p is not None and (p + 1) % self.n_workers == 0:
            return (p + 1) // self.n_workers - 1
        return None

    def visits(self, model: int) -> list[tuple[int, int]]:
        """``(epoch, shard)`` visit order for one model — the canonical
        stream, identical for every model (that is the bit-exactness
        argument in one line)."""
        return [
            (self.epoch_of(p), self.shard_of(p)) for p in range(self.stream_length)
        ]

    def to_doc(self) -> dict:
        return {
            "n_models": self.n_models,
            "n_workers": self.n_workers,
            "epochs": self.epochs,
            "total_slots": self.total_slots,
            "stream_length": self.stream_length,
            "bubble_ratio": round(self.bubble_ratio, 6),
        }

    def render(self, max_slots: int = 12) -> list[str]:
        """Human-oriented hop table for EXPLAIN (one line per slot)."""
        lines = []
        for t in range(min(self.total_slots, max_slots)):
            cells = []
            for w in range(self.n_workers):
                m = self.model_at(w, t)
                cells.append(f"w{w}:{'-' if m is None else f'm{m}'}")
            lines.append(f"slot {t:>3}  " + "  ".join(cells))
        if self.total_slots > max_slots:
            lines.append(f"... ({self.total_slots - max_slots} more slots)")
        return lines


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HopperWorkerConfig:
    """Everything one hopper worker needs, as picklable plain data."""

    worker_id: int
    n_workers: int
    n_models: int
    path: str
    model_blobs: tuple  # S serialized models (constructor config travels too)
    lrs: tuple  # S base learning rates
    decays: tuple  # S per-epoch decay factors
    seed: int
    epochs: int
    buffer_blocks: int
    start_slot: int = 0


def hopper_worker_main(cfg: HopperWorkerConfig, shard, arrays, sync, results) -> int:
    """The grid entry point: host whichever model the schedule hands this
    worker each slot; returns the tuples this worker stepped."""
    models = [model_from_bytes(blob) for blob in cfg.model_blobs]
    schedule = HopperSchedule(cfg.n_models, cfg.n_workers, cfg.epochs)
    (slab,) = arrays
    tuples_done = 0
    with obs.span("hopper.worker", worker=cfg.worker_id):
        for slot in range(cfg.start_slot, schedule.total_slots):
            sync()  # A: slab rows current
            m = schedule.model_at(cfg.worker_id, slot)
            if m is None:
                obs.inc("hopper.bubbles")
            else:
                tuples_done += _run_slot(cfg, schedule, shard, models[m], slab, m, slot)
            sync()  # B: coordinator reads the slab
    return tuples_done


def _run_slot(cfg, schedule, shard, model, slab, m, slot) -> int:
    """Host model ``m`` for one slot: load, step this epoch's fills, store."""
    p = schedule.position(m, slot)
    epoch = schedule.epoch_of(p)
    lr = float(cfg.lrs[m]) * float(cfg.decays[m]) ** epoch
    with obs.span(
        "hopper.slot", slot=slot, worker=cfg.worker_id, model=m, epoch=epoch
    ) as sp:
        t0 = time.perf_counter()
        model.load_parameter_vector(slab[m].copy())
        obs.observe("hopper.serialize_s", time.perf_counter() - t0)
        count = step_shard(model, shard, epoch, lr)
        t1 = time.perf_counter()
        slab[m, :] = model.parameter_vector()
        obs.observe("hopper.serialize_s", time.perf_counter() - t1)
        sp.set(tuples=count)
    obs.inc("hopper.hops")
    return count


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


@dataclass
class HopperResult:
    """Everything one model-hopper grid run produces."""

    models: list
    histories: list
    labels: list
    schedule: HopperSchedule
    slots_run: int
    tuples_processed: int
    slot_walls: list
    wall_seconds: float
    loader_stats: LoaderMetrics
    storage_stats: StorageMetrics
    per_worker: list = field(default_factory=list)
    plan: dict = field(default_factory=dict)

    def leaderboard(self) -> list[dict]:
        """Per-config summaries, best (lowest final loss) first."""
        rows = []
        for i, (label, history) in enumerate(zip(self.labels, self.histories)):
            final = history.final if history.records else None
            rows.append(
                {
                    "config": i,
                    "label": label,
                    "final_train_loss": None if final is None else final.train_loss,
                    "final_train_score": None if final is None else final.train_score,
                    "epochs_run": len(history.records),
                    "curve": [
                        {
                            "epoch": r.epoch,
                            "train_loss": r.train_loss,
                            "train_score": r.train_score,
                        }
                        for r in history.records
                    ],
                }
            )
        rows.sort(
            key=lambda r: (
                r["final_train_loss"] is None,
                r["final_train_loss"],
                r["config"],
            )
        )
        for rank, row in enumerate(rows):
            row["rank"] = rank
        return rows

    def describe(self) -> dict:
        return {
            "schedule": self.schedule.to_doc(),
            "slots_run": self.slots_run,
            "tuples_processed": self.tuples_processed,
            "wall_seconds": round(self.wall_seconds, 6),
            "leaderboard": self.leaderboard(),
            "plan": self.plan,
        }


class HopperEngine:
    """Multi-process model-hopper training of S models over one block file."""

    def __init__(
        self,
        path: str | Path,
        models: list,
        *,
        lrs: list,
        decays: list,
        epochs: int,
        n_workers: int,
        buffer_blocks: int = 2,
        seed: int = 0,
        labels: list | None = None,
        checkpoint_path: str | Path | None = None,
        task: str = "binary",
        on_slot=None,
        fleet: WorkerFleet | None = None,
        eval_set=None,
    ):
        if not models:
            raise ValueError("need at least one model")
        if not (len(models) == len(lrs) == len(decays)):
            raise ValueError("models, lrs and decays must align")
        dims = {int(m.parameter_vector().size) for m in models}
        if len(dims) != 1:
            raise ValueError(
                f"all hopper models must share one parameter dimension, got {sorted(dims)}"
            )
        self.path = str(path)
        self.models = list(models)
        self.lrs = [float(x) for x in lrs]
        self.decays = [float(x) for x in decays]
        self.labels = (
            list(labels) if labels is not None else [f"config {i}" for i in range(len(models))]
        )
        self.epochs = int(epochs)
        self.seed = int(seed)
        self.checkpoint_path = None if checkpoint_path is None else Path(checkpoint_path)
        self.on_slot = on_slot
        #: The fleet to run on; ``None`` opens one for the length of ``run``.
        self.fleet = fleet
        self.planner = ShardPlanner.for_block_file(
            self.path, n_workers, buffer_blocks, seed=self.seed
        )
        self.schedule = HopperSchedule(
            len(models), self.planner.n_workers, self.epochs
        )
        self.dim = dims.pop()
        #: The block file's rows, for evaluation: the caller's ``Dataset`` if
        #: it has one, else the file read back.
        self.eval_set = (
            eval_set if eval_set is not None else load_block_dataset(self.path, task=task)
        )

    # ------------------------------------------------------------------
    def run(self) -> HopperResult:
        """Run the schedule — from the checkpoint file's slot when it exists."""
        S = self.schedule.n_models
        histories = [
            ConvergenceHistory(strategy="hopper", model=type(m).__name__)
            for m in self.models
        ]
        start_slot = 0
        slab_init = np.stack([m.parameter_vector() for m in self.models])
        loaded = self._load_checkpoint(histories)
        if loaded is not None:
            start_slot, slab_init = loaded

        blobs = tuple(model_to_bytes(m) for m in self.models)
        slot_walls: list[float] = []
        # The fleet is entered last so an abort reaps it before the slab's
        # name is unlinked (see repro.parallel.shm).
        with (
            shared_arrays((S, self.dim)) as ((slab,), handles),
            running_fleet(self.fleet, self.planner.n_workers) as fleet,
        ):
            slab[:, :] = slab_init
            fleet.arm(
                hopper_worker_main,
                [
                    HopperWorkerConfig(
                        worker_id=w,
                        n_workers=self.planner.n_workers,
                        n_models=S,
                        path=self.path,
                        model_blobs=blobs,
                        lrs=tuple(self.lrs),
                        decays=tuple(self.decays),
                        seed=self.seed,
                        epochs=self.epochs,
                        buffer_blocks=self.planner.buffer_blocks,
                        start_slot=start_slot,
                    )
                    for w in range(self.planner.n_workers)
                ],
                handles,
                label="hopper",
            )
            t_start = time.perf_counter()
            for slot in range(start_slot, self.schedule.total_slots):
                t0 = time.perf_counter()
                with obs.span("hopper.coordinator_slot", slot=slot) as sp:
                    fleet.rendezvous()  # A: workers step
                    fleet.rendezvous()  # B: slab rows written
                    self._evaluate_completions(slot, slab, histories)
                    if self.checkpoint_path is not None:
                        self._save_checkpoint(slot + 1, slab, histories)
                    wall = time.perf_counter() - t0
                    sp.set(wall_s=wall)
                slot_walls.append(wall)
                obs.inc("hopper.slots")
                if self.on_slot is not None:
                    self.on_slot(slot, self._progress_doc(slot + 1, histories))
            per_worker, merged_loader, merged_storage, worker_tuples = fleet.collect()
            wall_seconds = time.perf_counter() - t_start

            for m, model in enumerate(self.models):
                model.load_parameter_vector(slab[m].copy())
            if self.checkpoint_path is not None:
                self._save_checkpoint(self.schedule.total_slots, slab, histories)
        return HopperResult(
            models=self.models,
            histories=histories,
            labels=self.labels,
            schedule=self.schedule,
            slots_run=len(slot_walls),
            tuples_processed=worker_tuples,
            slot_walls=slot_walls,
            wall_seconds=wall_seconds,
            loader_stats=merged_loader,
            storage_stats=merged_storage,
            per_worker=per_worker,
            plan=self.planner.describe(),
        )

    # ------------------------------------------------------------------
    def _evaluate_completions(self, slot, slab, histories) -> None:
        for m, epoch in _completions(self.schedule, slot):
            self.models[m].load_parameter_vector(slab[m].copy())
            histories[m].append(
                _hop_record(self.models[m], self.eval_set, epoch, self.lrs[m], self.decays[m])
            )
            obs.inc("hopper.epochs_completed")

    def _progress_doc(self, slots_done, histories) -> dict:
        return {
            "slots_done": int(slots_done),
            "total_slots": self.schedule.total_slots,
            "epochs_completed": [len(h.records) for h in histories],
        }

    # -- checkpointing ---------------------------------------------------
    def _checkpoint_meta(self) -> dict:
        return {
            "n_models": self.schedule.n_models,
            "n_workers": self.planner.n_workers,
            "epochs": self.epochs,
            "buffer_blocks": self.planner.buffer_blocks,
            "seed": self.seed,
        }

    def _save_checkpoint(self, slots_done, slab, histories) -> None:
        header = {
            "hopper_checkpoint_version": _CKPT_VERSION,
            "slots_done": int(slots_done),
            "labels": self.labels,
            "lrs": self.lrs,
            "decays": self.decays,
            "histories": [[asdict(r) for r in h.records] for h in histories],
            "meta": self._checkpoint_meta(),
        }
        buffer = io.BytesIO()
        np.savez(
            buffer,
            slab=np.asarray(slab, dtype=np.float64),
            __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
        durable_write(self.checkpoint_path, buffer.getvalue())

    def _load_checkpoint(self, histories):
        """Restore ``(start_slot, slab)`` from disk; None if no checkpoint."""
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return None
        with np.load(io.BytesIO(self.checkpoint_path.read_bytes())) as archive:
            header = json.loads(bytes(archive["__header__"].tobytes()).decode())
            slab = np.array(archive["slab"], dtype=np.float64)
        if header.get("hopper_checkpoint_version") != _CKPT_VERSION:
            raise ValueError(
                f"unsupported hopper checkpoint version "
                f"{header.get('hopper_checkpoint_version')!r}"
            )
        meta = header.get("meta", {})
        for knob, have in self._checkpoint_meta().items():
            want = meta.get(knob)
            if want is not None and want != have:
                raise ValueError(
                    f"hopper checkpoint was taken with {knob}={want!r}; resuming "
                    f"with {have!r} would change the update sequence"
                )
        if slab.shape != (self.schedule.n_models, self.dim):
            raise ValueError(
                f"hopper checkpoint slab shape {slab.shape} does not match "
                f"(S={self.schedule.n_models}, dim={self.dim})"
            )
        for h, records in zip(histories, header.get("histories", [])):
            for record in records:
                h.append(EpochRecord(**record))
        return int(header["slots_done"]), slab


# ----------------------------------------------------------------------
# In-process reference executor (equivalence tests)
# ----------------------------------------------------------------------


def run_hopper_inprocess(
    path: str | Path,
    models: list,
    *,
    lrs: list,
    decays: list,
    epochs: int,
    n_workers: int,
    buffer_blocks: int = 2,
    seed: int = 0,
    task: str = "binary",
):
    """Execute the hop schedule serially in this process.

    Work units are independent across workers within a slot (distinct
    models, private readers), so serial execution produces bit-identical
    models to :class:`HopperEngine`.  Returns ``(models, histories)``.
    """
    path = str(path)
    schedule = HopperSchedule(len(models), int(n_workers), int(epochs))
    eval_set = load_block_dataset(path, task=task)
    histories = [
        ConvergenceHistory(strategy="hopper-ref", model=type(m).__name__)
        for m in models
    ]
    with ExitStack() as stack:
        shards = [
            stack.enter_context(
                CorgiPileDataset(path, buffer_blocks, seed=seed, worker_id=w, n_workers=n_workers)
            )
            for w in range(n_workers)
        ]
        for slot in range(schedule.total_slots):
            for worker, shard in enumerate(shards):
                m = schedule.model_at(worker, slot)
                if m is None:
                    continue
                epoch = schedule.epoch_of(schedule.position(m, slot))
                lr = float(lrs[m]) * float(decays[m]) ** epoch
                step_shard(models[m], shard, epoch, lr)
            for m, epoch in _completions(schedule, slot):
                histories[m].append(_hop_record(models[m], eval_set, epoch, lrs[m], decays[m]))
    return models, histories


def _completions(schedule: HopperSchedule, slot: int):
    """``(model, epoch)`` for every model that finishes an epoch with ``slot``."""
    for m in range(schedule.n_models):
        epoch = schedule.completes_epoch(m, slot)
        if epoch is not None:
            yield m, epoch


def _hop_record(model, eval_set, epoch: int, lr: float, decay: float) -> EpochRecord:
    return epoch_record(
        model, eval_set, None, epoch, float(lr) * float(decay) ** epoch,
        (epoch + 1) * int(eval_set.n_tuples),
    )
