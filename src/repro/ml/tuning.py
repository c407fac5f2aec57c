"""Hyper-parameter tuning and multi-seed statistics.

The paper tunes learning rates by grid search over {0.1, 0.01, 0.001}
(Section 7.1.3) and reports converged accuracies that average out SGD
noise.  This module provides both pieces:

* :func:`grid_search` — train one model per hyper-parameter combination
  and return the best by validation score;
* :func:`multi_seed` — repeat a training run across seeds and report
  mean/std/min/max of the converged score, the right way to compare
  strategies at our (noisy, scaled-down) data sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..data.dataset import Dataset
from .schedules import ExponentialDecay
from .trainer import ConvergenceHistory, Trainer

__all__ = ["GridResult", "grid_search", "SeedStats", "multi_seed"]


@dataclass
class GridResult:
    """Outcome of a grid search."""

    best_params: dict
    best_score: float
    best_history: ConvergenceHistory
    trials: list[dict] = field(default_factory=list)


def grid_search(
    model_factory: Callable[[], object],
    train: Dataset,
    validation: Dataset,
    index_source_factory: Callable[[int], object],
    param_grid: Mapping[str, Sequence],
    *,
    epochs: int,
    batch_size: int = 1,
) -> GridResult:
    """Exhaustive search over ``param_grid``.

    ``param_grid`` maps parameter names to candidate values; recognised
    names are ``learning_rate`` and ``decay`` (others raise).  Each trial
    trains a fresh model with a fresh index source (seeded by the trial
    number) and scores it on ``validation`` using the tail-averaged
    converged score.
    """
    recognised = {"learning_rate", "decay"}
    unknown = set(param_grid) - recognised
    if unknown:
        raise ValueError(f"unknown grid parameters: {sorted(unknown)}")
    if not param_grid:
        raise ValueError("param_grid must contain at least one parameter")

    names = list(param_grid)
    best: GridResult | None = None
    trials: list[dict] = []
    for trial, values in enumerate(itertools.product(*(param_grid[n] for n in names))):
        params = dict(zip(names, values))
        schedule = ExponentialDecay(
            params.get("learning_rate", 0.05), params.get("decay", 0.95)
        )
        history = Trainer(
            model_factory(),
            train,
            index_source_factory(trial),
            epochs=epochs,
            schedule=schedule,
            batch_size=batch_size,
            test=validation,
        ).run()
        score = history.converged_test_score()
        trials.append({**params, "score": round(score, 4)})
        if best is None or score > best.best_score:
            best = GridResult(
                best_params=params, best_score=score, best_history=history
            )
    assert best is not None
    best.trials = trials
    return best


@dataclass(frozen=True)
class SeedStats:
    """Converged-score statistics across seeds."""

    scores: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        return float(np.std(self.scores))

    @property
    def min(self) -> float:
        return float(np.min(self.scores))

    @property
    def max(self) -> float:
        return float(np.max(self.scores))

    def overlaps(self, other: "SeedStats", sigmas: float = 2.0) -> bool:
        """Whether the two mean±sigmas intervals intersect."""
        lo_a, hi_a = self.mean - sigmas * self.std, self.mean + sigmas * self.std
        lo_b, hi_b = other.mean - sigmas * other.std, other.mean + sigmas * other.std
        return hi_a >= lo_b and hi_b >= lo_a


def multi_seed(
    run: Callable[[int], ConvergenceHistory],
    seeds: Sequence[int],
) -> SeedStats:
    """Run ``run(seed)`` per seed; collect tail-averaged converged scores."""
    if not seeds:
        raise ValueError("need at least one seed")
    scores = tuple(run(seed).converged_test_score() for seed in seeds)
    return SeedStats(scores=scores)
