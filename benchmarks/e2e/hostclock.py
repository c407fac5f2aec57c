"""A yardstick for how fast the host is *right now*.

The sandbox shares its two cores: over tens of seconds the same statement
runs 10-25 % slower or faster with no change in the program (measured: the
median TRAIN wall of consecutive 10 s windows had an interquartile spread
of 12 % of its median).  That drift is common to everything the process
executes, so a fixed piece of interpreter + numpy work timed next to each
statement drifts with it; dividing one by the other left a spread of 4 %.

Every *time* the benchmark reports as an end-to-end metric is therefore
in **calibrated** units::

    reported = measured wall x (CAL_REF_S / yardstick wall measured beside it)

``CAL_REF_S`` is the yardstick's wall on the quiet baseline host, so on that
host calibrated milliseconds are milliseconds.  The yardstick lives in this
directory: a PR that speeds the program up cannot touch it, so a real gain
shows in full.  Raw walls are kept beside the calibrated ones in the
``--out`` JSON, and the per-layer busy seconds of the traced pass are raw.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

__all__ = ["HostClock", "CAL_REF_S"]

#: The yardstick's wall on the quiet baseline host (seconds).
CAL_REF_S = 0.0067
#: Re-measure at most this often, and then for about this share of the time
#: since the last reading (at least ``MIN_PASSES`` passes of ~7 ms, at most
#: ``MAX_PASSES``): short statements get a reading every quarter second, a
#: 1 s statement gets ~50 ms of yardstick beside it, for the same ~5 % cost.
TICK_EVERY_S = 0.25
TICK_SHARE = 0.05
MIN_PASSES, MAX_PASSES = 2, 12
STALL_CAP = 4.0
YARDSTICK_ITERATIONS = 8000


class HostClock:
    """Timestamped yardstick readings, taken between statements."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((256, 28))
        self._w = rng.standard_normal(28)
        self.times: list[float] = []
        self.passes: list[list[float]] = []
        self.tick(force=True)

    @property
    def walls(self) -> list[float]:
        """One yardstick wall per reading: the mean of its passes, a pass
        counting for at most ``STALL_CAP`` times the median pass of the run.
        A rare long stall (150 ms seen) drops out of a median over statements
        and must not stay in the mean it is divided by."""
        cap = STALL_CAP * statistics.median(p for reading in self.passes for p in reading)
        return [sum(min(p, cap) for p in reading) / len(reading) for reading in self.passes]

    def _yardstick(self) -> float:
        """Interpreter dispatch + small numpy calls + short-lived objects:
        the mix every layer of the program is made of.  The collector is
        held off for its few ms: a collection here would time the program's
        heap, which a PR can change, instead of the host."""
        rows, w = self._rows, self._w
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(YARDSTICK_ITERATIONS):
                acc += float(rows[i & 255] @ w)
                _pair = (i, acc)
            return time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()

    def tick(self, force: bool = False) -> None:
        """Take a reading unless the last one is fresh.

        A reading is the *mean* of its passes: the host's slow-downs come in
        bursts of tens of ms, a statement's wall is the sum of the bursts
        that hit it, and only a mean adds up the same way (a minimum or a
        median of passes reads the quiet host and under-corrects: measured
        1.2x where the statements beside it slowed 1.4x)."""
        now = time.perf_counter()
        since = now - self.times[-1] if self.times else 0.0
        if force or since >= TICK_EVERY_S:
            passes = min(MAX_PASSES, max(MIN_PASSES, round(TICK_SHARE * since / CAL_REF_S)))
            self.passes.append([self._yardstick() for _ in range(passes)])
            self.times.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """``CAL_REF_S / yardstick`` for a statement: the mean of the
        readings next to it, two on each side, or four when the statement is
        longer than the gap between readings (it then has few samples in a
        run, and each must rest on more yardstick)."""
        k = 2 if end - start < TICK_EVERY_S else 4
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        walls = self.walls
        near = walls[max(0, before - k) : before] + walls[after : after + k]
        near = near or walls  # an interval spanning every reading
        return CAL_REF_S / (sum(near) / len(near))

    def section_scale(self, start: float, end: float) -> float:
        """``CAL_REF_S / yardstick`` for a long interval: the mean of the
        readings taken inside it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        walls = self.walls
        inside = walls[lo:hi] or walls[max(0, lo - 1) : hi + 1]
        return CAL_REF_S / (sum(inside) / len(inside))

    def calibrate(self, samples) -> None:
        """Fill in each sample's calibrated wall."""
        self.tick(force=True)
        for sample in samples:
            sample.wall_s = sample.raw_s * self.scale(sample.start, sample.start + sample.raw_s)
