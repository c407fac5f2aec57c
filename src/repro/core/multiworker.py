"""Multi-worker data loading over one block file.

Section 5.1 runs two data-loading threads per training process.  This
module implements that: ``MultiWorkerLoader`` opens ``n_workers``
:class:`~repro.core.dataset.CorgiPileDataset` views of the same block file
(same seed → disjoint random block slices), drives each through a
background :class:`~repro.core.prefetch.PrefetchLoader`, and interleaves
their batches round-robin into a single stream — the exact shape of
PyTorch's ``DataLoader(num_workers=N)`` over an iterable dataset.

The union of the workers' streams covers every tuple exactly once per
epoch, and loading overlaps both training and the other workers' I/O.

All worker streams share one :class:`~repro.obs.LoaderMetrics`, so the
loader reports aggregate queue/stall/wait counters; abandoning iteration
mid-epoch explicitly closes every per-worker stream, which joins every
producer thread deterministically (see :mod:`repro.core.prefetch`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from ..obs import LoaderMetrics
from ..storage.codec import TupleBatch
from .dataloader import DataLoader
from .dataset import CorgiPileDataset
from .prefetch import PrefetchLoader

__all__ = ["MultiWorkerLoader"]


class MultiWorkerLoader:
    """Round-robin interleave of prefetched per-worker CorgiPile streams."""

    def __init__(
        self,
        path: str | Path,
        n_workers: int,
        buffer_blocks_per_worker: int,
        batch_size: int,
        seed: int = 0,
        prefetch_depth: int = 2,
        stats: LoaderMetrics | None = None,
        reader_factory=None,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = int(batch_size)
        self.prefetch_depth = int(prefetch_depth)
        self.stats = stats if stats is not None else LoaderMetrics("multiworker")
        self._workers = [
            CorgiPileDataset(
                path,
                buffer_blocks=buffer_blocks_per_worker,
                seed=seed,
                worker_id=w,
                n_workers=n_workers,
                stats=self.stats,
                reader_factory=reader_factory,
            )
            for w in range(n_workers)
        ]

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def n_tuples(self) -> int:
        return self._workers[0].n_tuples

    def set_epoch(self, epoch: int) -> None:
        for worker in self._workers:
            worker.set_epoch(epoch)

    def __iter__(self) -> Iterator[TupleBatch]:
        streams = [
            iter(
                PrefetchLoader(
                    DataLoader(worker, batch_size=self.batch_size),
                    depth=self.prefetch_depth,
                    stats=self.stats,
                    name=f"worker{index}",
                )
            )
            for index, worker in enumerate(self._workers)
        ]
        try:
            live = list(range(len(streams)))
            while live:
                for index in list(live):
                    batch = next(streams[index], None)
                    if batch is None:
                        live.remove(index)
                        continue
                    yield batch
        finally:
            # Abandoned mid-epoch (or a consumer exception): close every
            # per-worker generator, which cancels and joins its producer.
            for stream in streams:
                stream.close()

    def close(self) -> None:
        for worker in self._workers:
            worker.close()

    def __enter__(self) -> "MultiWorkerLoader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
