"""Shard planning: which blocks, tuples, and sync steps each worker owns.

The planner is the bridge between the Section 5 *simulation*
(:class:`~repro.core.distributed.MultiProcessCorgiPile`) and the executing
engine (:mod:`repro.parallel.engine`): it *is* that simulation — per-worker
block shards from the shared per-epoch permutation, per-buffer-fill visit
orders, the global batch stream — built from a block file's index, plus the
quantities only an executor needs (shard sizes, the synchronised step
count).  Because the shards and fills are the simulation's own methods, the
executed tuple order provably matches the simulated stream (pinned by
``tests/test_parallel_plan.py``).

The planner is a plain picklable value object: the coordinator builds one,
and every spawned worker rebuilds an identical one from the same
``(n_tuples, tuples_per_block, n_workers, buffer_blocks, seed)`` — no
coordination is ever needed to agree on the plan, which is the heart of the
paper's multi-process design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..core.distributed import MultiProcessCorgiPile
from ..data.dataset import BlockLayout

__all__ = ["ShardPlanner"]

_INDEX_SUFFIX = ".index.json"


@dataclass(frozen=True)
class ShardPlanner(MultiProcessCorgiPile):
    """Deterministic partitioning of a block file across ``n_workers``."""

    n_tuples: int
    tuples_per_block: int
    n_workers: int
    buffer_blocks: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.buffer_blocks <= 0:
            raise ValueError("buffer_blocks must be positive")
        # The simulation's own attributes, derived from the fields (frozen,
        # hence ``object.__setattr__``); BlockLayout validates the geometry.
        object.__setattr__(self, "layout", BlockLayout(self.n_tuples, self.tuples_per_block))
        object.__setattr__(self, "buffer_blocks_per_worker", self.buffer_blocks)

    # ------------------------------------------------------------------
    @classmethod
    def for_block_file(
        cls,
        path: str | Path,
        n_workers: int,
        buffer_blocks: int,
        seed: int = 0,
    ) -> "ShardPlanner":
        """Build a planner from a block file's sidecar index.

        Block files store contiguous fixed-size blocks (a short final block
        is fine — that is exactly :class:`BlockLayout`'s shape), so the
        index pins the layout without reading any data bytes.
        """
        with open(str(Path(path)) + _INDEX_SUFFIX) as f:
            doc = json.load(f)
        blocks = doc["blocks"]
        if not blocks:
            raise ValueError(f"block file {path} has no blocks")
        tuples_per_block = max(int(b["n_tuples"]) for b in blocks)
        return cls(int(doc["n_tuples"]), tuples_per_block, n_workers, buffer_blocks, seed)

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self.layout.n_blocks

    def shard_sizes(self, epoch: int) -> list[int]:
        """Tuples owned by each worker this epoch (uneven splits allowed)."""
        return [
            int(sum(self.layout.block_size(int(b)) for b in blocks))
            for blocks in self.worker_blocks(epoch)
        ]

    # -- synchronous mode ------------------------------------------------
    def sync_steps(self, epoch: int, global_batch_size: int) -> int:
        """Gradient-sync steps this epoch (limited by the smallest shard).

        Every worker derives the same number independently, so the barrier
        protocol needs no negotiation; ``0`` means the epoch has no full
        global batch (e.g. fewer tuples per shard than ``bs/PN``).
        """
        per_worker = self.per_worker_batch(global_batch_size)
        smallest = min(self.shard_sizes(epoch))
        return smallest // per_worker

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {
            "n_tuples": self.n_tuples,
            "tuples_per_block": self.tuples_per_block,
            "n_blocks": self.n_blocks,
            "n_workers": self.n_workers,
            "buffer_blocks": self.buffer_blocks,
            "seed": self.seed,
        }
