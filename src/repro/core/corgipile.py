"""The CorgiPile shuffle (Algorithm 1 + the Section 6 multi-buffer variant).

CorgiPile is a two-level hierarchical shuffle:

1. *Block-level*: visit blocks in random order (random block I/O, which at
   ~10 MB blocks costs the same as a sequential scan — Appendix A);
2. *Tuple-level*: buffer ``buffer_blocks`` blocks at a time and shuffle all
   buffered tuples before handing them to SGD.

Two operating modes are provided:

* ``mode="full-pass"`` (default) — the deployed behaviour of the PyTorch and
  PostgreSQL integrations: every epoch visits *all* blocks, buffer-fill by
  buffer-fill.  This is what every end-to-end experiment runs.
* ``mode="sampled"`` — the literal Algorithm 1 used by the convergence
  analysis: each epoch samples ``buffer_blocks`` blocks without replacement
  and visits only those (one buffer fill per epoch).
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import BlockLayout
from ..shuffle.base import BlockAwareStrategy, StrategyTraits
from ..storage.iomodel import AccessTrace

__all__ = ["CorgiPileShuffle"]


class CorgiPileShuffle(BlockAwareStrategy):
    """Two-level block + tuple shuffle."""

    name = "corgipile"
    traits = StrategyTraits(needs_buffer=True, extra_disk_copies=0, io_pattern="random-block")

    def __init__(
        self,
        layout: BlockLayout,
        buffer_blocks: int,
        seed: int = 0,
        mode: str = "full-pass",
    ):
        super().__init__(layout, seed=seed)
        if buffer_blocks <= 0:
            raise ValueError("buffer_blocks must be positive")
        if mode not in ("full-pass", "sampled"):
            raise ValueError(f"unknown mode {mode!r}")
        self.buffer_blocks = min(int(buffer_blocks), layout.n_blocks)
        self.mode = mode

    # ------------------------------------------------------------------
    @classmethod
    def from_buffer_fraction(
        cls,
        layout: BlockLayout,
        buffer_fraction: float,
        seed: int = 0,
        mode: str = "full-pass",
    ) -> "CorgiPileShuffle":
        """Build with a buffer holding ``buffer_fraction`` of the dataset.

        The paper specifies buffers as a percentage of the dataset size
        (1 %-10 %); this converts that to a whole number of blocks.
        """
        if not 0.0 < buffer_fraction <= 1.0:
            raise ValueError("buffer_fraction must be in (0, 1]")
        n = max(1, round(buffer_fraction * layout.n_blocks))
        return cls(layout, n, seed=seed, mode=mode)

    # ------------------------------------------------------------------
    def epoch_block_order(self, epoch: int) -> np.ndarray:
        """The random block visit order for ``epoch``.

        In ``sampled`` mode only the first ``buffer_blocks`` entries are
        visited — a without-replacement sample, exactly Algorithm 1 step 4.
        """
        self._check_epoch(epoch)
        order = self._rng(epoch).permutation(self.layout.n_blocks)
        if self.mode == "sampled":
            return order[: self.buffer_blocks]
        return order

    def buffer_fills(self, epoch: int) -> list[np.ndarray]:
        """Per buffer fill, the shuffled tuple indices it emits.

        Each fill gathers ``buffer_blocks`` blocks' tuples and shuffles them
        together (Algorithm 1 steps 4-5 / the TupleShuffle operator).
        """
        rng = self._rng(epoch)
        # Re-draw the block order from the same stream so that
        # epoch_block_order and buffer_fills agree for a given epoch.
        order = rng.permutation(self.layout.n_blocks)
        if self.mode == "sampled":
            order = order[: self.buffer_blocks]
        fills: list[np.ndarray] = []
        for lo in range(0, order.size, self.buffer_blocks):
            group = order[lo : lo + self.buffer_blocks]
            indices = np.concatenate([self.layout.block_indices(b) for b in group])
            rng.shuffle(indices)
            fills.append(indices)
        return fills

    def epoch_indices(self, epoch: int) -> np.ndarray:
        fills = self.buffer_fills(epoch)
        return np.concatenate(fills) if fills else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def blocks_visited(self, epoch: int) -> int:
        if self.mode == "sampled":
            return self.buffer_blocks
        return self.layout.n_blocks

    def epoch_trace(self, tuple_bytes: float) -> AccessTrace:
        trace = AccessTrace()
        trace.add(
            "rand",
            self.blocks_visited(0),
            self.block_bytes(tuple_bytes),
            note="corgipile random block reads",
        )
        return trace
