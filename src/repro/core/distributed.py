"""Multi-process CorgiPile (Section 5.1-5.2): the one shard plan.

PyTorch's DDP mode runs ``PN`` processes, each with its own GPU.  CorgiPile
extends to this setting by (1) sharing the block-level shuffle across
processes — every process draws the *same* shuffled block index from the
same seed and takes its own slice — and (2) giving every process a local
tuple-shuffle buffer of ``1/PN`` the single-process size.  Because mini-batch
SGD synchronises gradients every batch, the effective global order is the
interleaving of the per-process streams batch-slice by batch-slice, which
Section 5.2 argues is equivalent to single-process CorgiPile with a
``PN``-times-larger buffer.

:class:`MultiProcessCorgiPile` is that plan, and it serves both sides: it
simulates the execution at the index level (per-worker streams, ``bs/PN``
batch slices, the AllReduce concatenation — so the equivalence claim is
testable, see the Figure 5 bench), and it is what executes it — every
:class:`~repro.core.dataset.CorgiPileDataset` reads its fills in the
plan's block groups, and the engine in :mod:`repro.parallel` takes shard
sizes and the synchronised step count from it.  The plan is a pure function
of ``(layout, n_workers, buffer_blocks, seed)``: the coordinator and every
spawned worker build identical ones, with no coordination.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..data.dataset import BlockLayout
from ..storage.blockfile import _INDEX_SUFFIX
from .corgipile import CorgiPileShuffle
from .seeding import epoch_rng, worker_rng

__all__ = ["MultiProcessCorgiPile"]


class MultiProcessCorgiPile:
    """CorgiPile over ``n_workers`` processes, ``buffer_blocks`` blocks a fill."""

    def __init__(
        self,
        layout: BlockLayout,
        n_workers: int,
        buffer_blocks: int,
        seed: int = 0,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if buffer_blocks <= 0:
            raise ValueError("buffer_blocks must be positive")
        self.layout = layout
        self.n_workers = int(n_workers)
        self.buffer_blocks = int(buffer_blocks)
        self.seed = int(seed)

    @classmethod
    def for_blocks(
        cls,
        n_tuples: int,
        block_sizes: Sequence[int],
        n_workers: int,
        buffer_blocks: int,
        seed: int = 0,
    ) -> "MultiProcessCorgiPile":
        """The plan over a block file whose blocks hold ``block_sizes`` tuples.

        Block files store contiguous fixed-size blocks (a short final block
        is fine — exactly :class:`BlockLayout`'s shape), so the sizes pin
        the layout.
        """
        if not block_sizes:
            raise ValueError("a block file with no blocks has no shard plan")
        layout = BlockLayout(int(n_tuples), max(int(n) for n in block_sizes))
        return cls(layout, n_workers, buffer_blocks, seed)

    @classmethod
    def for_block_file(
        cls,
        path: str | Path,
        n_workers: int,
        buffer_blocks: int,
        seed: int = 0,
    ) -> "MultiProcessCorgiPile":
        """The plan over the block file at ``path``, from its sidecar index
        alone (no data bytes are read)."""
        with open(str(Path(path)) + _INDEX_SUFFIX) as f:
            doc = json.load(f)
        sizes = [int(b["n_tuples"]) for b in doc["blocks"]]
        return cls.for_blocks(int(doc["n_tuples"]), sizes, n_workers, buffer_blocks, seed)

    @property
    def n_blocks(self) -> int:
        return self.layout.n_blocks

    def describe(self) -> dict:
        return {
            "n_tuples": self.layout.n_tuples,
            "tuples_per_block": self.layout.tuples_per_block,
            "n_blocks": self.n_blocks,
            "n_workers": self.n_workers,
            "buffer_blocks": self.buffer_blocks,
            "seed": self.seed,
        }

    # ------------------------------------------------------------------
    def worker_blocks(self, epoch: int) -> list[np.ndarray]:
        """Per-worker block assignment for ``epoch``.

        All workers shuffle the full block index with the same seed, then
        worker ``i`` keeps the ``i``-th part — disjoint random subsets with
        no coordination (Section 5.1, step 2).
        """
        order = epoch_rng(self.seed, epoch).permutation(self.layout.n_blocks)
        return list(np.array_split(order, self.n_workers))

    def fill_groups(self, epoch: int, worker_id: int) -> list[np.ndarray]:
        """Worker ``worker_id``'s blocks for ``epoch``, ``buffer_blocks`` at a
        time: one group per tuple-buffer fill, in read order."""
        if not 0 <= worker_id < self.n_workers:
            raise IndexError("worker_id out of range")
        blocks = self.worker_blocks(epoch)[worker_id]
        step = self.buffer_blocks
        return [blocks[lo : lo + step] for lo in range(0, blocks.size, step)]

    def fill_sizes(self, epoch: int, worker_id: int) -> list[int]:
        """Tuples in each of the worker's fills (no shuffle is drawn)."""
        return [
            sum(self.layout.block_size(int(b)) for b in group)
            for group in self.fill_groups(epoch, worker_id)
        ]

    def shard_sizes(self, epoch: int) -> list[int]:
        """Tuples owned by each worker this epoch (uneven splits allowed)."""
        return [
            int(sum(self.layout.block_size(int(b)) for b in blocks))
            for blocks in self.worker_blocks(epoch)
        ]

    def worker_buffer_fills(self, epoch: int, worker_id: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Worker ``worker_id``'s stream, one entry per tuple-buffer fill.

        Each entry is ``(block_group, shuffled_indices)``: the blocks read
        into the buffer and the tuple visit order the drain produces — the
        order :meth:`~repro.core.dataset.CorgiPileDataset.fills` executes.
        :meth:`worker_epoch_indices` is the flat concatenation.
        """
        rng = worker_rng(self.seed, epoch, worker_id)
        fills: list[tuple[np.ndarray, np.ndarray]] = []
        for group in self.fill_groups(epoch, worker_id):
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

    def sync_steps(self, epoch: int, global_batch_size: int) -> int:
        """Gradient-sync steps this epoch (limited by the smallest shard).

        Every worker derives the same number independently, so the barrier
        protocol needs no negotiation; ``0`` means the epoch has no full
        global batch (e.g. fewer tuples per shard than ``bs/PN``).
        """
        return min(self.shard_sizes(epoch)) // self.per_worker_batch(global_batch_size)

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
            self.buffer_blocks * self.n_workers,
            seed=self.seed,
        )
