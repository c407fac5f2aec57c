"""Reference implementations the tests hold the engine to.

None of these runs in the program: each is the plain, obviously-correct
version of something the library does faster or in parallel, kept here so
the equivalence tests compare against the same code they always have.

* :class:`ShuffleBuffer` — a tuple-at-a-time shuffle buffer (fill, shuffle,
  drain), the per-tuple reference ``tests/test_operator_batches.py`` holds
  the in-DB TupleShuffle operator to.
* :func:`sync_reference_trainer` — the single-process run a ``sync``
  :class:`~repro.parallel.ParallelTrainer` must match (Section 5.2).
* :func:`run_hopper_inprocess` — the model-hopper schedule executed serially
  in this process, the reference for :class:`~repro.parallel.HopperEngine`.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import Generic, Iterable, TypeVar

import numpy as np

from repro import obs
from repro.core import CorgiPileDataset, MultiProcessCorgiPile
from repro.ml import SGD, ExponentialDecay, SupervisedModel, Trainer, fixed_order_source
from repro.parallel import HopperSchedule, load_block_dataset
from repro.parallel.worker import step_shard

T = TypeVar("T")


class ShuffleBuffer(Generic[T]):
    """A bounded buffer that shuffles its contents before draining."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._rng = rng
        self._items: list[T] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def add(self, item: T) -> None:
        if self.full:
            raise ValueError("buffer full; drain before adding")
        self._items.append(item)

    def fill_from(self, source: Iterable[T]) -> int:
        """Pull items from ``source`` until full or exhausted; return count.

        Consistent with :meth:`add`, the buffer never exceeds ``capacity``:
        a full buffer pulls nothing (returning 0), and no item is consumed
        from ``source`` without room to store it.
        """
        added = 0
        iterator = iter(source)
        while not self.full:
            try:
                item = next(iterator)
            except StopIteration:
                break
            self._items.append(item)
            added += 1
        return added

    def shuffle_and_drain(self) -> list[T]:
        """Shuffle buffered items, empty the buffer, return them."""
        order = self._rng.permutation(len(self._items))
        drained = [self._items[i] for i in order]
        self._items.clear()
        obs.SESSION_LOADER.record_buffer_drained(len(drained))
        return drained


def sync_reference_trainer(
    path: str | Path,
    model: SupervisedModel,
    *,
    n_workers: int,
    epochs: int,
    global_batch_size: int,
    buffer_blocks: int = 2,
    seed: int = 0,
    schedule=None,
    task: str = "binary",
) -> Trainer:
    """The single-process run a sync parallel run must match (≈1e-12).

    Mini-batch SGD of ``global_batch_size`` over the interleaved multi-
    process stream: mean-of-equal-slice-means equals the global batch
    mean, so per-batch gradient averaging across ``PN`` processes applies
    numerically the same update sequence as this trainer.
    """
    planner = MultiProcessCorgiPile.for_block_file(path, n_workers, buffer_blocks, seed=seed)
    orders = [planner.epoch_indices(e, global_batch_size) for e in range(epochs)]
    train = load_block_dataset(path, task=task)
    return Trainer(
        model,
        train,
        fixed_order_source(f"mp-sim-{n_workers}w", orders),
        epochs=epochs,
        schedule=schedule if schedule is not None else ExponentialDecay(0.01),
        batch_size=global_batch_size,
        optimizer=SGD(model),
    )


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
) -> list:
    """Execute the hop schedule serially in this process; returns ``models``.

    Work units are independent across workers within a slot (distinct
    models, private readers), so serial execution produces bit-identical
    models to :class:`~repro.parallel.HopperEngine`.
    """
    path = str(path)
    schedule = HopperSchedule(len(models), int(n_workers), int(epochs))
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
    return models
