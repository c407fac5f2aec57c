"""repro.parallel — the executing multi-process data-parallel engine.

Executes :class:`~repro.core.distributed.MultiProcessCorgiPile`, the one
shard plan (the same class is the index-level simulation): a coordinator
spawns ``PN`` worker processes (spawn-safe), each reading its shard of the
shared per-epoch block permutation through its own
:class:`~repro.core.dataset.CorgiPileDataset`, whose fills follow that
plan's block groups, with pluggable
aggregation (``sync`` per-batch gradient averaging on per-worker replicas,
``epoch`` model averaging), atomic coordinator
checkpoints at seams, and per-worker stats merged into one cross-process
report.
"""

from .aggregate import (
    AGGREGATION_MODES,
    average_gradient_slots,
    pack_gradients,
    unpack_gradients,
    weighted_average_models,
)
from .engine import (
    ParallelResult,
    ParallelTrainer,
    WorkerError,
    load_block_dataset,
)
from .hopper import (
    HopperEngine,
    HopperResult,
    HopperSchedule,
)
from .worker import WorkerConfig

__all__ = [
    "AGGREGATION_MODES",
    "WorkerConfig",
    "ParallelTrainer",
    "ParallelResult",
    "WorkerError",
    "load_block_dataset",
    "HopperSchedule",
    "HopperEngine",
    "HopperResult",
    "pack_gradients",
    "unpack_gradients",
    "average_gradient_slots",
    "weighted_average_models",
]
