"""Multi-process CorgiPile (Section 5.1-5.2).

PyTorch's DDP mode runs ``PN`` processes, each with its own GPU.  CorgiPile
extends to this setting by (1) sharing the block-level shuffle across
processes — every process draws the *same* shuffled block index from the
same seed and takes its own slice — and (2) giving every process a local
tuple-shuffle buffer of ``1/PN`` the single-process size.  Because mini-batch
SGD synchronises gradients every batch, the effective global order is the
interleaving of the per-process streams batch-slice by batch-slice, which
Section 5.2 argues is equivalent to single-process CorgiPile with a
``PN``-times-larger buffer.

This module simulates that execution faithfully at the index level: the
per-worker streams, the ``bs/PN`` batch slices, and the AllReduce
concatenation, so the equivalence claim is *testable* (see Figure 5 bench).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..data.dataset import BlockLayout
from .corgipile import CorgiPileShuffle
from .seeding import epoch_rng, worker_rng

__all__ = ["MultiProcessCorgiPile"]


class MultiProcessCorgiPile:
    """Simulated DDP execution of CorgiPile over ``n_workers`` processes."""

    def __init__(
        self,
        layout: BlockLayout,
        n_workers: int,
        buffer_blocks_per_worker: int,
        seed: int = 0,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if buffer_blocks_per_worker <= 0:
            raise ValueError("buffer_blocks_per_worker must be positive")
        self.layout = layout
        self.n_workers = int(n_workers)
        self.buffer_blocks_per_worker = int(buffer_blocks_per_worker)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def worker_blocks(self, epoch: int) -> list[np.ndarray]:
        """Per-worker block assignment for ``epoch``.

        All workers shuffle the full block index with the same seed, then
        worker ``i`` keeps the ``i``-th part — disjoint random subsets with
        no coordination (Section 5.1, step 2).
        """
        order = epoch_rng(self.seed, epoch).permutation(self.layout.n_blocks)
        return list(np.array_split(order, self.n_workers))

    def worker_buffer_fills(self, epoch: int, worker_id: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Worker ``worker_id``'s stream, one entry per tuple-buffer fill.

        Each entry is ``(block_group, shuffled_indices)``: the blocks read
        into the buffer and the tuple visit order the drain produces.  The
        executing engine (:mod:`repro.parallel`) consumes this form — one
        fill is its unit of I/O — while :meth:`worker_epoch_indices` is the
        flat concatenation, so execution provably matches the simulation.
        """
        if not 0 <= worker_id < self.n_workers:
            raise IndexError("worker_id out of range")
        blocks = self.worker_blocks(epoch)[worker_id]
        rng = worker_rng(self.seed, epoch, worker_id)
        fills: list[tuple[np.ndarray, np.ndarray]] = []
        for lo in range(0, blocks.size, self.buffer_blocks_per_worker):
            group = blocks[lo : lo + self.buffer_blocks_per_worker]
            indices = np.concatenate([self.layout.block_indices(b) for b in group])
            rng.shuffle(indices)
            fills.append((group, indices))
        return fills

    def worker_epoch_indices(self, epoch: int, worker_id: int) -> np.ndarray:
        """Worker-local CorgiPile stream: buffer-fill groups, shuffled tuples."""
        fills = self.worker_buffer_fills(epoch, worker_id)
        if not fills:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([indices for _, indices in fills])

    # ------------------------------------------------------------------
    def per_worker_batch(self, global_batch_size: int) -> int:
        """Each worker's ``bs/PN`` slice of a global batch."""
        if global_batch_size <= 0:
            raise ValueError("global_batch_size must be positive")
        if global_batch_size % self.n_workers != 0:
            raise ValueError("global_batch_size must be divisible by n_workers")
        return global_batch_size // self.n_workers

    def global_batches(self, epoch: int, global_batch_size: int) -> Iterator[np.ndarray]:
        """The AllReduce-equivalent global batch stream.

        Each worker contributes ``global_batch_size / n_workers`` tuples per
        step; gradient synchronisation makes the step equivalent to one
        mini-batch over the concatenation of the slices.
        """
        per_worker = self.per_worker_batch(global_batch_size)
        streams = [self.worker_epoch_indices(epoch, w) for w in range(self.n_workers)]
        n_steps = min(s.size for s in streams) // per_worker
        for step in range(n_steps):
            lo = step * per_worker
            yield np.concatenate([s[lo : lo + per_worker] for s in streams])

    def epoch_indices(self, epoch: int, global_batch_size: int) -> np.ndarray:
        """Flattened global visit order (for feeding the trainer)."""
        batches = list(self.global_batches(epoch, global_batch_size))
        if not batches:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(batches)

    # ------------------------------------------------------------------
    def equivalent_single_process(self) -> CorgiPileShuffle:
        """The single-process CorgiPile with a ``PN``-times-larger buffer.

        Section 5.2's equivalence claim: multi-process CorgiPile with
        per-worker buffers of ``n`` blocks behaves like single-process
        CorgiPile with an ``n * PN``-block buffer.
        """
        return CorgiPileShuffle(
            self.layout,
            self.buffer_blocks_per_worker * self.n_workers,
            seed=self.seed,
        )
