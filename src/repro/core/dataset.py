"""``CorgiPileDataset`` — the PyTorch-style iterable dataset API (Section 5).

The paper integrates CorgiPile into PyTorch as::

    train_dataset = CorgiPileDataset(dataset_path, block_index_path, ...)
    train_loader  = DataLoader(train_dataset, ...)
    train(train_loader, model, ...)

This module rebuilds that API without PyTorch.  A :class:`CorgiPileDataset`
wraps an on-disk block file (written by
:func:`repro.storage.blockfile.write_block_file`): iterating it reads blocks
in a fresh random order, buffers ``buffer_blocks`` blocks, shuffles the
buffered tuples, and yields them — fill by fill (:meth:`~CorgiPileDataset.fills`)
or one by one (``__iter__``) — i.e. the iterator *is* the two-level shuffle,
streaming from real files.

Call :meth:`CorgiPileDataset.set_epoch` between epochs to advance the
shuffle seed (mirroring ``DistributedSampler.set_epoch`` in PyTorch).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .. import obs
from ..obs import LoaderMetrics
from ..storage.blockfile import BlockFileReader
from ..storage.codec import TrainingTuple, TupleBatch
from .seeding import epoch_rng, worker_rng

__all__ = ["CorgiPileDataset"]


class CorgiPileDataset:
    """Iterable dataset performing the CorgiPile shuffle over a block file."""

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
        self.buffer_blocks = int(buffer_blocks)
        self.seed = int(seed)
        self.worker_id = int(worker_id)
        self.n_workers = int(n_workers)
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
    def _worker_blocks(self, rng: np.random.Generator) -> np.ndarray:
        """Block-level shuffle + split across workers (Section 5.1 step 2).

        All workers draw the *same* shuffled block index (same seed), then
        worker ``i`` takes the ``i``-th contiguous slice — so workers see
        disjoint random block sets.
        """
        order = rng.permutation(self.n_blocks)
        slices = np.array_split(order, self.n_workers)
        return slices[self.worker_id]

    def fills(self, columns=None, start: int = 0) -> Iterator[TupleBatch]:
        """The two-level shuffle, one buffer fill at a time.

        The worker's share of the shuffled block ids is read ``buffer_blocks``
        blocks at a time; each group is one fill — the ``concat`` of its
        blocks, permuted once with the worker-local tuple-shuffle stream — so
        a consumer that trains on whole fills never sees a per-tuple object.
        On a columnar file ``columns`` (names) prunes the read to the chunks
        the consumer touches, e.g. ``training_columns(sparse)``; a fill read
        without the ``ids`` chunk carries ``-1`` ids.  ``start`` is the index
        of the first fill wanted: the fills before it are never read (a
        resumed worker skips them), only their draws are taken from the
        tuple-shuffle stream so the rest of the epoch is unchanged.
        """
        # The block-shuffle RNG is shared across workers (same seed, same
        # epoch); the tuple-shuffle RNG is worker-local.
        my_blocks = self._worker_blocks(epoch_rng(self.seed, self.epoch))
        tuple_rng = worker_rng(self.seed, self.epoch, self.worker_id)
        stats = self.stats or obs.SESSION_LOADER
        for i, lo in enumerate(range(0, len(my_blocks), self.buffer_blocks)):
            group = my_blocks[lo : lo + self.buffer_blocks]
            if i < start:
                tuple_rng.permutation(sum(self.reader.entries[int(b)].n_tuples for b in group))
                continue
            fill = TupleBatch.concat([self._read_block(int(b), columns) for b in group])
            n = len(fill)
            stats.record_buffer_filled(n)
            stats.record_buffer_drained(n)
            yield fill.take(tuple_rng.permutation(n))

    def __iter__(self) -> Iterator[TrainingTuple]:
        for fill in self.fills():
            yield from fill.to_tuples()

    def _read_block(self, block_id: int, columns):
        batch = self.reader.read_block_batch(block_id, columns=columns)
        if "ids" in getattr(batch, "available_columns", ("ids",)):
            return batch
        # Rows move as whole batches, which need an ids column to move.
        return TupleBatch(
            np.full(len(batch), -1, dtype=np.int64), batch.labels, batch.n_features,
            dense=batch.dense, indptr=batch.indptr, indices=batch.indices, values=batch.values,
        )

    def close(self) -> None:
        self.reader.close()

    def __enter__(self) -> "CorgiPileDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
