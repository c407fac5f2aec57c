"""End-to-end timelines: accuracy as a function of simulated wall-clock.

The paper's end-to-end figures (11, 16, 18) plot test accuracy against
elapsed time, including any pre-training shuffle.  A :class:`Timeline` is
the corresponding data structure: a setup segment (possibly zero) followed
by one point per epoch at its cumulative finish time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs

__all__ = ["TimelinePoint", "Timeline"]


@dataclass(frozen=True)
class TimelinePoint:
    """One epoch-end observation."""

    time_s: float
    epoch: int
    train_loss: float
    train_score: float
    test_score: float | None


@dataclass
class Timeline:
    """A labelled accuracy-over-time series."""

    system: str
    setup_s: float = 0.0
    setup_note: str = ""
    points: list[TimelinePoint] = field(default_factory=list)

    def append(
        self,
        epoch_wall_s: float,
        epoch: int,
        train_loss: float,
        train_score: float,
        test_score: float | None,
    ) -> None:
        last = self.points[-1].time_s if self.points else self.setup_s
        self.points.append(
            TimelinePoint(last + epoch_wall_s, epoch, train_loss, train_score, test_score)
        )
        # Simulated-clock span: start/end are modelled seconds on the
        # timeline's own axis, not perf_counter time — marked so exporters
        # and reports can keep the two clocks apart.
        obs.add_span(
            "timeline.epoch",
            last,
            last + epoch_wall_s,
            clock="simulated",
            system=self.system,
            epoch=epoch,
        )

    @property
    def total_time_s(self) -> float:
        return self.points[-1].time_s if self.points else self.setup_s

    @property
    def final_test_score(self) -> float | None:
        return self.points[-1].test_score if self.points else None

    def time_to_reach(self, test_score: float) -> float | None:
        """Earliest wall-clock at which the test score reaches the target."""
        for point in self.points:
            if point.test_score is not None and point.test_score >= test_score:
                return point.time_s
        return None

    def speedup_over(self, other: "Timeline", test_score: float) -> float | None:
        """``other``'s time-to-target divided by ours (>1 ⇒ we are faster)."""
        mine = self.time_to_reach(test_score)
        theirs = other.time_to_reach(test_score)
        if mine is None or theirs is None or mine == 0:
            return None
        return theirs / mine
