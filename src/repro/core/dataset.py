"""``CorgiPileDataset`` — the PyTorch-style iterable dataset API (Section 5).

The paper integrates CorgiPile into PyTorch as::

    train_dataset = CorgiPileDataset(dataset_path, block_index_path, ...)
    train_loader  = DataLoader(train_dataset, ...)
    train(train_loader, model, ...)

This module rebuilds that API without PyTorch.  A :class:`CorgiPileDataset`
wraps an on-disk block file (written by
:func:`repro.storage.blockfile.write_block_file`): iterating it reads blocks
in a fresh random order, buffers ``buffer_blocks`` blocks, shuffles the
buffered tuples, and yields them fill by fill
(:meth:`~CorgiPileDataset.fills`) — i.e. the fill stream *is* the two-level
shuffle, streaming from real files; :class:`~repro.core.dataloader.DataLoader`
cuts it into mini-batches.

Call :meth:`CorgiPileDataset.set_epoch` between epochs to advance the
shuffle seed (mirroring ``DistributedSampler.set_epoch`` in PyTorch).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator

from .. import obs
from ..obs import LoaderMetrics
from ..storage.blockfile import BlockFileReader
from ..storage.codec import TupleBatch
from .distributed import MultiProcessCorgiPile
from .seeding import worker_rng

__all__ = ["CorgiPileDataset"]


class CorgiPileDataset:
    """Dataset performing the CorgiPile shuffle over a block file, one fill at a time."""

    def __init__(
        self,
        path: str | Path,
        buffer_blocks: int,
        seed: int = 0,
        worker_id: int = 0,
        n_workers: int = 1,
        stats: LoaderMetrics | None = None,
        reader_factory: Callable[[str | Path], BlockFileReader] | None = None,
    ):
        if buffer_blocks <= 0:
            raise ValueError("buffer_blocks must be positive")
        if n_workers <= 0 or not 0 <= worker_id < n_workers:
            raise ValueError("need 0 <= worker_id < n_workers")
        # ``reader_factory`` swaps the storage layer under the shuffle — e.g.
        # repro.faults.faulty_reader_factory injects a fault plan here.
        self.reader = (reader_factory or BlockFileReader)(path)
        self.seed = int(seed)
        self.worker_id = int(worker_id)
        #: The Section 5 plan this worker's fills follow (block split, groups).
        self.plan = MultiProcessCorgiPile.for_blocks(
            self.reader.n_tuples, [e.n_tuples for e in self.reader.entries],
            n_workers, buffer_blocks, self.seed,
        )
        self.epoch = 0
        #: Optional private scope: counts this dataset's buffer fills/drains.
        self.stats = stats

    # ------------------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        return self.reader.n_tuples

    @property
    def n_blocks(self) -> int:
        return self.reader.n_blocks

    def set_epoch(self, epoch: int) -> None:
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        self.epoch = int(epoch)

    # ------------------------------------------------------------------
    def fills(self, start: int = 0) -> Iterator[TupleBatch]:
        """The two-level shuffle, one buffer fill at a time.

        The worker's share of the shuffled block ids is read in the plan's
        groups of ``buffer_blocks`` blocks (``self.plan.fill_groups``); each
        group is one fill — the ``concat`` of its blocks, permuted once with
        the worker-local tuple-shuffle stream — so a consumer that trains on
        whole fills never sees a per-tuple object.  ``start`` is the index
        of the first fill wanted: the fills before it are never read (a
        resumed worker skips them), only their draws are taken from the
        tuple-shuffle stream so the rest of the epoch is unchanged.
        """
        # The block-shuffle RNG is shared across workers (same seed, same
        # epoch); the tuple-shuffle RNG is worker-local.
        groups = self.plan.fill_groups(self.epoch, self.worker_id)
        tuple_rng = worker_rng(self.seed, self.epoch, self.worker_id)
        stats = self.stats or obs.SESSION_LOADER
        for i, group in enumerate(groups):
            if i < start:
                tuple_rng.permutation(sum(self.reader.entries[int(b)].n_tuples for b in group))
                continue
            fill = TupleBatch.concat([self.reader.read_block_batch(int(b)) for b in group])
            n = len(fill)
            stats.record_buffer_filled(n)
            stats.record_buffer_drained(n)
            yield fill.take(tuple_rng.permutation(n))

    def close(self) -> None:
        self.reader.close()

    def __enter__(self) -> "CorgiPileDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
