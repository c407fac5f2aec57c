"""From-scratch NumPy machine learning: losses, models, optimisers, trainer."""

from .kernels import csr_rows_unique, glm_epoch_dense, glm_epoch_sparse
from .losses import HingeLoss, LogisticLoss, ScalarLoss, SquaredLoss
from .metrics import accuracy, r_squared, top_k_accuracy
from .models import (
    GeneralizedLinearModel,
    LinearRegression,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    SoftmaxRegression,
    SupervisedModel,
)
from .optim import SGD, AdaGrad, Adam, Optimizer, RMSprop
from .schedules import ConstantLR, ExponentialDecay, InverseEpochDecay, StepDecay
from .persistence import (
    CheckpointState,
    durable_write,
    load_checkpoint,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_checkpoint,
    save_model,
)
from .tuning import GridResult, SeedStats, grid_search, multi_seed
from .trainer import (
    CheckpointConfig,
    ConvergenceHistory,
    EarlyStopping,
    EpochRecord,
    Trainer,
    fixed_order_source,
    run_epochs,
)

__all__ = [
    "glm_epoch_dense",
    "glm_epoch_sparse",
    "csr_rows_unique",
    "ScalarLoss",
    "LogisticLoss",
    "HingeLoss",
    "SquaredLoss",
    "accuracy",
    "top_k_accuracy",
    "r_squared",
    "SupervisedModel",
    "GeneralizedLinearModel",
    "LogisticRegression",
    "LinearSVM",
    "LinearRegression",
    "SoftmaxRegression",
    "MLPClassifier",
    "Optimizer",
    "SGD",
    "Adam",
    "AdaGrad",
    "RMSprop",
    "ConstantLR",
    "ExponentialDecay",
    "StepDecay",
    "InverseEpochDecay",
    "Trainer",
    "EarlyStopping",
    "ConvergenceHistory",
    "EpochRecord",
    "fixed_order_source",
    "run_epochs",
    "save_model",
    "load_model",
    "model_to_bytes",
    "model_from_bytes",
    "CheckpointConfig",
    "CheckpointState",
    "save_checkpoint",
    "durable_write",
    "load_checkpoint",
    "grid_search",
    "GridResult",
    "multi_seed",
    "SeedStats",
]
