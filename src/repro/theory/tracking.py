"""Training-time theory diagnostics.

The convergence analysis of Section 4.2 is stated in terms of quantities —
the per-example gradient variance σ² and the block-variance factor ``h_D``
— that change as the model trains.  :class:`GradientStatsTracker` measures
them at the end of every epoch (as a Trainer callback), producing the data
needed to check that the bound's ingredients behave as assumed: σ² stays
bounded (Assumption 1.5) and ``h_D`` keeps separating clustered from
shuffled layouts along the whole trajectory, not just at initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data.dataset import BlockLayout, Dataset
from ..ml.models.base import SupervisedModel
from .hd import block_gradient_variance, gradient_variance, hd_factor

__all__ = ["GradientStats", "GradientStatsTracker"]


@dataclass(frozen=True)
class GradientStats:
    """One epoch's theory snapshot."""

    epoch: int
    sigma2: float
    block_variance: float
    hd: float


@dataclass
class GradientStatsTracker:
    """Measures σ², block variance, and h_D after every epoch.

    Use as a Trainer callback::

        tracker = GradientStatsTracker(dataset, layout)
        Trainer(..., callbacks=[tracker]).run()
        tracker.history  # list[GradientStats]
    """

    dataset: Dataset
    layout: BlockLayout
    history: list[GradientStats] = field(default_factory=list)

    def __call__(self, epoch: int, model: SupervisedModel, record) -> None:
        sigma2 = gradient_variance(model, self.dataset)
        blockvar = block_gradient_variance(model, self.dataset, self.layout)
        self.history.append(
            GradientStats(
                epoch=epoch,
                sigma2=sigma2,
                block_variance=blockvar,
                hd=hd_factor(model, self.dataset, self.layout),
            )
        )

    @property
    def final(self) -> GradientStats:
        if not self.history:
            raise ValueError("tracker has not observed any epochs")
        return self.history[-1]

    def hd_series(self) -> list[float]:
        return [s.hd for s in self.history]
