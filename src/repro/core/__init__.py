"""CorgiPile core: the two-level shuffle, buffers, dataset API, multi-process mode."""

from .buffer import ShuffleBuffer, pipelined_time, serial_time
from .corgipile import CorgiPileShuffle
from .dataloader import Batch, DataLoader, collate
from .dataset import CorgiPileDataset
from .distributed import MultiProcessCorgiPile
from .lifecycle import THREADS, ManagedProducer, ProducerChannel, ThreadRegistry
from .multiworker import MultiWorkerLoader
from .prefetch import PrefetchLoader
from .seeding import derive_rng, epoch_rng, fault_unit_rng, stream_rng, worker_rng

__all__ = [
    "CorgiPileShuffle",
    "ShuffleBuffer",
    "pipelined_time",
    "serial_time",
    "CorgiPileDataset",
    "DataLoader",
    "Batch",
    "collate",
    "MultiProcessCorgiPile",
    "PrefetchLoader",
    "MultiWorkerLoader",
    "derive_rng",
    "epoch_rng",
    "worker_rng",
    "stream_rng",
    "fault_unit_rng",
    "ManagedProducer",
    "ProducerChannel",
    "ThreadRegistry",
    "THREADS",
]
