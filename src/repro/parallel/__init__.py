"""repro.parallel — the executing multi-process data-parallel engine.

Turns :class:`~repro.core.distributed.MultiProcessCorgiPile` from an
index-level simulation into real training: a coordinator spawns ``PN``
worker processes (spawn-safe), each reading its shard of the shared
per-epoch block permutation through its own
:class:`~repro.storage.blockfile.BlockFileReader`, with pluggable
aggregation (``sync`` per-batch gradient averaging on per-worker replicas,
``epoch`` model averaging, ``async`` Hogwild), atomic coordinator
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
    sync_reference_trainer,
)
from .hopper import (
    HopperEngine,
    HopperResult,
    HopperSchedule,
    run_hopper_inprocess,
)
from .plan import ShardPlanner
from .worker import WorkerConfig

__all__ = [
    "AGGREGATION_MODES",
    "ShardPlanner",
    "WorkerConfig",
    "ParallelTrainer",
    "ParallelResult",
    "WorkerError",
    "load_block_dataset",
    "sync_reference_trainer",
    "HopperSchedule",
    "HopperEngine",
    "HopperResult",
    "run_hopper_inprocess",
    "pack_gradients",
    "unpack_gradients",
    "average_gradient_slots",
    "weighted_average_models",
]
