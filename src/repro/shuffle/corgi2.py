"""Corgi² — the hybrid offline-online two-step block shuffle (arXiv 2309.01640).

Corgi² prefixes CorgiPile with a *partial* offline shuffle: blocks are
visited once in random order in groups of ``group_blocks``, the tuples of
each group are shuffled together, and the result is written back as new
blocks of the same size.  The online step is then plain CorgiPile over the
re-grouped blocks.

The offline pass costs one random-block read pass plus one sequential write
pass — far cheaper than a full external-sort shuffle — yet it compounds
with the online buffer: after re-grouping, each *new* block is a mixture of
``group_blocks`` original blocks, so the clustering factor the online
buffer sees is already reduced by ``~group_blocks`` before the tuple-level
shuffle divides it again by the buffered block count.  On clustered data
this dominates plain CorgiPile at equal online I/O.

All randomness derives from :mod:`repro.core.seeding`: the one-time offline
pass draws from the dedicated ``CORGI2_OFFLINE_STREAM`` (epoch-independent),
the online CorgiPile from the usual ``(seed, epoch)`` streams, so a Corgi²
run replays identically and its online half stays byte-compatible with
:class:`~repro.core.corgipile.CorgiPileShuffle`.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import BlockLayout
from ..storage.iomodel import AccessTrace
from .base import BlockAwareStrategy, StrategyTraits

__all__ = ["Corgi2Shuffle", "corgi2_offline_order"]


def corgi2_offline_order(layout: BlockLayout, group_blocks: int, seed: int) -> np.ndarray:
    """The offline re-grouping permutation: new position → original tuple id.

    Blocks are permuted once, partitioned into runs of ``group_blocks``,
    and each run's tuples are shuffled together.  The result is the physical
    tuple order of the re-grouped copy; cutting it back into blocks of
    ``layout.tuples_per_block`` gives the blocks the online step reads.
    """
    from ..core.seeding import CORGI2_OFFLINE_STREAM, stream_rng

    if group_blocks <= 0:
        raise ValueError("group_blocks must be positive")
    group_blocks = min(int(group_blocks), layout.n_blocks)
    rng = stream_rng(seed, 0, CORGI2_OFFLINE_STREAM)
    block_order = rng.permutation(layout.n_blocks)
    pieces: list[np.ndarray] = []
    for lo in range(0, block_order.size, group_blocks):
        group = block_order[lo : lo + group_blocks]
        indices = np.concatenate([layout.block_indices(b) for b in group])
        rng.shuffle(indices)
        pieces.append(indices)
    return np.concatenate(pieces)


class Corgi2Shuffle(BlockAwareStrategy):
    """Offline partial block re-grouping + online CorgiPile."""

    name = "corgi2"
    traits = StrategyTraits(needs_buffer=True, extra_disk_copies=1, io_pattern="random-block")

    def __init__(
        self,
        layout: BlockLayout,
        buffer_blocks: int,
        seed: int = 0,
        group_blocks: int | None = None,
    ):
        super().__init__(layout, seed=seed)
        if buffer_blocks <= 0:
            raise ValueError("buffer_blocks must be positive")
        self.buffer_blocks = min(int(buffer_blocks), layout.n_blocks)
        # Default: the offline pass groups as many blocks as the online
        # buffer holds — the Corgi² setting where both steps use the same
        # working-set size.
        self.group_blocks = min(
            int(group_blocks) if group_blocks is not None else self.buffer_blocks,
            layout.n_blocks,
        )
        if self.group_blocks <= 0:
            raise ValueError("group_blocks must be positive")
        self._offline = corgi2_offline_order(layout, self.group_blocks, seed)
        # Online half: plain CorgiPile over the re-grouped layout, sharing
        # the per-(seed, epoch) streams so the visit order over re-grouped
        # positions is byte-identical to CorgiPileShuffle's.
        from ..core.corgipile import CorgiPileShuffle

        self._online = CorgiPileShuffle(layout, self.buffer_blocks, seed=seed)

    # ------------------------------------------------------------------
    @classmethod
    def from_buffer_fraction(
        cls,
        layout: BlockLayout,
        buffer_fraction: float,
        seed: int = 0,
        group_blocks: int | None = None,
    ) -> "Corgi2Shuffle":
        """Build with an online buffer holding ``buffer_fraction`` of the data."""
        if not 0.0 < buffer_fraction <= 1.0:
            raise ValueError("buffer_fraction must be in (0, 1]")
        n = max(1, round(buffer_fraction * layout.n_blocks))
        return cls(layout, n, seed=seed, group_blocks=group_blocks)

    # ------------------------------------------------------------------
    @property
    def offline_order(self) -> np.ndarray:
        """New physical position → original tuple id (a permutation)."""
        return self._offline.copy()

    def epoch_indices(self, epoch: int) -> np.ndarray:
        self._check_epoch(epoch)
        # The online step walks *re-grouped* positions; map them back to
        # original tuple ids through the offline permutation.
        return self._offline[self._online.epoch_indices(epoch)]

    def buffer_fills(self, epoch: int) -> list[np.ndarray]:
        """Per online buffer fill, the original tuple ids it emits."""
        return [self._offline[fill] for fill in self._online.buffer_fills(epoch)]

    # ------------------------------------------------------------------
    def setup_trace(self, tuple_bytes: float) -> AccessTrace:
        """One random-block read pass + one sequential write of the copy."""
        trace = AccessTrace()
        trace.add(
            "rand",
            self.layout.n_blocks,
            self.block_bytes(tuple_bytes),
            note="corgi2 offline block reads",
        )
        trace.add(
            "seq_write",
            1,
            self.n_tuples * tuple_bytes,
            note="corgi2 offline re-grouped copy write",
        )
        return trace

    def epoch_trace(self, tuple_bytes: float) -> AccessTrace:
        trace = AccessTrace()
        trace.add(
            "rand",
            self.layout.n_blocks,
            self.block_bytes(tuple_bytes),
            note="corgi2 online random block reads",
        )
        return trace
