"""CorgiPile core: the two-level shuffle, buffers, dataset API, multi-process mode."""

from .buffer import pipelined_time, serial_time
from .corgipile import CorgiPileShuffle
from .dataloader import DataLoader
from .dataset import CorgiPileDataset
from .distributed import MultiProcessCorgiPile
from .multiworker import MultiWorkerLoader
from .prefetch import PrefetchLoader
from .seeding import derive_rng, epoch_rng, fault_unit_rng, stream_rng, worker_rng

__all__ = [
    "CorgiPileShuffle",
    "pipelined_time",
    "serial_time",
    "CorgiPileDataset",
    "DataLoader",
    "MultiProcessCorgiPile",
    "PrefetchLoader",
    "MultiWorkerLoader",
    "derive_rng",
    "epoch_rng",
    "worker_rng",
    "stream_rng",
    "fault_unit_rng",
]
