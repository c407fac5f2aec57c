"""A minimal ``DataLoader`` over :class:`CorgiPileDataset`.

Cuts the dataset's shuffled buffer fills into ``batch_size``-row
:class:`~repro.storage.codec.TupleBatch`\\ es with
:meth:`~repro.storage.codec.RowStream.take`: a batch inside one fill is a
zero-copy slice of it, one that straddles two fills is one ``concat``.  The
trainer consumes these batches (``features_matrix()``, ``labels``, ``ids``)
exactly like PyTorch's ``train()`` loop consumes ``DataLoader`` batches in
the paper's Section 5 listing.
"""

from __future__ import annotations

from typing import Iterator

from ..storage.codec import RowStream, TupleBatch
from .dataset import CorgiPileDataset

__all__ = ["DataLoader"]


class DataLoader:
    """Mini-batches of a dataset's fill stream, in visit order."""

    def __init__(self, dataset: CorgiPileDataset, batch_size: int = 1, drop_last: bool = False):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)

    def __iter__(self) -> Iterator[TupleBatch]:
        fills = self.dataset.fills()
        stream = RowStream(lambda: next(fills, None))
        while (batch := stream.take(self.batch_size)) is not None:
            if self.drop_last and len(batch) < self.batch_size:
                return
            yield batch
