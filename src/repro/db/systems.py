"""Comparator systems: MADlib, Bismarck, and the out-of-DB framework.

The end-to-end experiments compare CorgiPile-in-PostgreSQL against

* **Apache MADlib** — UDA-based SGD with extra per-tuple statistics work
  (and, for dense high-dimensional LR, an expensive standard-error matrix
  computation that the paper observed never finishing — Section 7.3.1);
  MADlib also lacks sparse LR/SVM support;
* **Bismarck** — UDA-based SGD, leaner than MADlib;
* **PyTorch outside the DB** — pays a Python↔C++ invocation per tuple in
  per-tuple SGD mode (the paper's Figure 15 explanation for being 2-16×
  slower than in-DB CorgiPile on many-tuple datasets).

Neither MADlib nor Bismarck shuffles data itself: they either scan in stored
order (``no_shuffle``) or assume/materialise a pre-shuffled copy
(``shuffle_once``).  We therefore run both through :class:`MiniDB` with the
corresponding access path and the system's compute profile — the same
substrate, so measured differences come only from the modelled cost
structure, exactly like the paper's apples-to-apples setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.dataset import Dataset
from ..ml.models.base import SupervisedModel
from ..ml.optim import Adam, Optimizer, SGD
from ..ml.schedules import ExponentialDecay
from ..ml.trainer import Trainer
from ..shuffle.base import ShuffleStrategy
from ..shuffle.registry import make_strategy
from ..storage.codec import TupleSchema
from ..storage.iomodel import MEMORY, DeviceModel
from .engine import ENGINE_PROFILE, MiniDB, TrainResult
from .spec import TrainSpec
from .timeline import Timeline
from .timing import ComputeProfile

__all__ = [
    "MADLIB_PROFILE",
    "BISMARCK_PROFILE",
    "PYTORCH_PROFILE",
    "DL_FRAMEWORK_PROFILE",
    "SYSTEM_PROFILES",
    "run_in_db_system",
    "madlib_supports",
    "run_framework",
]

# UDA transition costs: Bismarck is the lean baseline, MADlib does extra
# per-tuple statistics bookkeeping ("more computation on some auxiliary
# statistical metrics and less efficient implementation", Section 7.3.1).
BISMARCK_PROFILE = ComputeProfile(
    "bismarck", per_tuple_s=3e-6, per_value_s=6e-9, decompress_per_byte_s=3e-8
)
MADLIB_PROFILE = ComputeProfile(
    "madlib", per_tuple_s=9e-6, per_value_s=1.5e-8, decompress_per_byte_s=3e-8
)
# Per-tuple Python↔C++ crossing of framework SGD on single tuples.
PYTORCH_PROFILE = ComputeProfile("pytorch", per_tuple_s=4e-5, per_value_s=2e-9)
# Deep-learning forward/backward dominates; per-value stands in for FLOPs.
DL_FRAMEWORK_PROFILE = ComputeProfile("dl-framework", per_tuple_s=2e-4, per_value_s=1e-7)

SYSTEM_PROFILES: dict[str, ComputeProfile] = {
    "corgipile": ENGINE_PROFILE,
    "bismarck": BISMARCK_PROFILE,
    "madlib": MADLIB_PROFILE,
}

# Extra per-value cost of MADlib's stderr matrix computation for dense LR;
# effectively quadratic in dimensionality, which is why MADlib LR never
# finished on epsilon/yfcc in the paper.
_MADLIB_LR_STDERR_PER_VALUE_PER_DIM = 1.2e-8


def madlib_supports(model_name: str, dataset: Dataset) -> bool:
    """MADlib's documented gaps: no sparse LR/SVM training."""
    if dataset.is_sparse and model_name in ("lr", "svm"):
        return False
    return True


def _madlib_profile_for(model_name: str, dataset: Dataset) -> ComputeProfile:
    if model_name == "lr" and not dataset.is_sparse:
        extra = _MADLIB_LR_STDERR_PER_VALUE_PER_DIM * dataset.n_features
        return ComputeProfile(
            "madlib-lr",
            per_tuple_s=MADLIB_PROFILE.per_tuple_s,
            per_value_s=MADLIB_PROFILE.per_value_s + extra,
            decompress_per_byte_s=MADLIB_PROFILE.decompress_per_byte_s,
        )
    return MADLIB_PROFILE


def run_in_db_system(
    system: str,
    strategy: str,
    train: Dataset,
    test: Dataset | None,
    model_name: str,
    device: DeviceModel,
    *,
    epochs: int = 20,
    learning_rate: float = 0.1,
    buffer_fraction: float = 0.1,
    block_size: int = 10 * 1024**2,
    batch_size: int = 1,
    compress: bool = False,
    seed: int = 0,
    page_bytes: int = 1024,
) -> TrainResult:
    """Run one (system, strategy) combination end-to-end on the mini engine.

    ``system`` selects the compute profile (``corgipile`` / ``bismarck`` /
    ``madlib``); ``strategy`` the access path.  Raises ``ValueError`` for
    combinations the real systems do not support (MADlib on sparse GLMs).
    """
    if system not in SYSTEM_PROFILES:
        raise ValueError(f"unknown system {system!r}; known: {', '.join(SYSTEM_PROFILES)}")
    if system == "madlib" and not madlib_supports(model_name, train):
        raise ValueError("MADlib does not support training LR/SVM on sparse datasets")
    profile = (
        _madlib_profile_for(model_name, train) if system == "madlib" else SYSTEM_PROFILES[system]
    )
    db = MiniDB(device=device, compute=profile, page_bytes=page_bytes)
    db.create_table("t", train, compress=compress)
    spec = TrainSpec(
        table="t",
        model=model_name,
        lr=learning_rate,
        epochs=epochs,
        block_size=block_size,
        buffer_fraction=buffer_fraction,
        batch_size=batch_size,
        strategy=strategy,
        seed=seed,
    )
    result = db.train(spec, test=test)
    result.timeline.system = f"{system}/{strategy}"
    return result


# ----------------------------------------------------------------------
# The out-of-DB framework simulator (PyTorch-style execution).
# ----------------------------------------------------------------------
@dataclass
class FrameworkRun:
    """Training outcome + modelled timing of a framework (PyTorch) run."""

    timeline: Timeline
    history: object
    per_epoch_s: float
    model: SupervisedModel


def _average_tuple_bytes(dataset: Dataset) -> float:
    schema = TupleSchema(dataset.n_features, sparse=dataset.is_sparse)
    if dataset.is_sparse:
        nnz = dataset.X.nnz / max(1, dataset.n_tuples)
        return schema.sparse_tuple_bytes(int(round(nnz)))
    return schema.dense_tuple_bytes()


def run_framework(
    train: Dataset,
    test: Dataset | None,
    model: SupervisedModel,
    strategy: ShuffleStrategy | str,
    device: DeviceModel,
    *,
    epochs: int = 20,
    learning_rate: float = 0.1,
    decay: float = 0.95,
    batch_size: int = 1,
    buffer_fraction: float = 0.1,
    tuples_per_block: int | None = None,
    compute: ComputeProfile = PYTORCH_PROFILE,
    in_memory: bool = False,
    use_adam: bool = False,
    n_workers: int = 1,
    seed: int = 0,
    shuffle_once_epoch_equivalents: float | None = None,
) -> FrameworkRun:
    """Train ``model`` the PyTorch way and model its wall-clock.

    ``in_memory=True`` models the paper's practice of loading small datasets
    into RAM before training (I/O then charged at memory speed after a
    one-time sequential load).  ``n_workers > 1`` divides the per-epoch
    compute (data-parallel GPUs) but not the I/O.
    """
    if isinstance(strategy, str):
        per_block = tuples_per_block or max(1, train.n_tuples // 100)
        layout = train.layout(per_block)
        strategy = make_strategy(strategy, layout, buffer_fraction=buffer_fraction, seed=seed)

    optimizer: Optimizer | None
    if use_adam:
        optimizer = Adam(model)
    elif batch_size > 1:
        optimizer = SGD(model)
    else:
        optimizer = None

    trainer = Trainer(
        model,
        train,
        strategy,
        epochs=epochs,
        schedule=ExponentialDecay(learning_rate, decay),
        batch_size=batch_size,
        optimizer=optimizer,
        test=test,
    )
    history = trainer.run()

    tuple_bytes = _average_tuple_bytes(train)
    values = (
        train.X.nnz / max(1, train.n_tuples) if train.is_sparse else float(train.n_features)
    )
    compute_s = train.n_tuples * compute.tuple_compute_s(values) / max(1, n_workers)
    io_device = MEMORY if in_memory else device
    io_s = strategy.epoch_trace(tuple_bytes).time_on(io_device)
    per_epoch_s = max(io_s, compute_s) if io_s and compute_s else io_s + compute_s

    setup_s = strategy.setup_trace(tuple_bytes).time_on(device)
    if shuffle_once_epoch_equivalents is not None and strategy.name == "shuffle_once":
        # Framework-side full shuffles materialise millions of small records
        # with random file I/O, which the paper measured at ~8.5 hours for
        # ImageNet against ~0.37 h/epoch of training — about 23 epoch
        # equivalents.  The external-sort model used by the in-DB path does
        # not capture that small-file regime, so the DL benchmarks charge
        # the measured ratio instead (calibrated, and documented in
        # DESIGN.md/EXPERIMENTS.md).
        setup_s = shuffle_once_epoch_equivalents * per_epoch_s
    if in_memory:
        setup_s += device.sequential_time(train.n_tuples * tuple_bytes)  # initial load

    timeline = Timeline(
        system=f"framework/{strategy.name}", setup_s=setup_s, setup_note="framework setup"
    )
    for record in history.records:
        timeline.append(
            per_epoch_s, record.epoch, record.train_loss, record.train_score, record.test_score
        )
    return FrameworkRun(timeline=timeline, history=history, per_epoch_s=per_epoch_s, model=model)
