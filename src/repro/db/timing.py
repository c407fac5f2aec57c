"""Simulated-time accounting for the mini in-DB ML engine.

Wall-clock on the paper's testbed is dominated by two quantities that this
environment cannot measure but *can* model precisely:

* storage I/O — charged through :mod:`repro.storage.iomodel` device models;
* per-tuple SGD compute — charged through a per-system
  :class:`ComputeProfile` (systems differ enormously here: MADlib computes
  extra per-tuple statistics, PyTorch pays a Python↔C++ boundary crossing
  per tuple, our engine does a dot product and an axpy).

The :class:`RuntimeContext` is threaded through the Volcano operators.  The
TupleShuffle operator marks *buffer fill* boundaries; I/O accumulated while
producing a fill and compute spent consuming it are paired up so the epoch
wall-clock can honour double buffering (fills overlap consumption —
Section 6.3) or single buffering (they serialise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.buffer import pipelined_time, serial_time
from ..obs import LoaderMetrics
from ..storage.iomodel import MEMORY, DeviceModel

__all__ = ["ComputeProfile", "RuntimeContext", "overlap_report", "overlap_crosscheck"]

#: Decimal places ``overlap_report`` keeps of the stall and wait seconds.
REPORT_DIGITS = 6
#: ``overlap_crosscheck`` passes a gap up to max(floor seconds, share of wall).
CROSSCHECK_FLOOR_S, CROSSCHECK_WALL_FRAC = 0.05, 0.10


@dataclass(frozen=True)
class ComputeProfile:
    """Per-tuple CPU cost of one SGD update in a given system.

    ``per_tuple_s`` is the fixed cost of touching a tuple (function-call,
    slot extraction, UDA transition); ``per_value_s`` scales with the number
    of feature values processed (the dot product / axpy).
    ``decompress_per_byte_s`` applies only to TOAST-compressed tables.
    """

    name: str
    per_tuple_s: float
    per_value_s: float
    decompress_per_byte_s: float = 0.0

    def tuple_compute_s(self, n_values: int, compressed_bytes: float = 0.0) -> float:
        return (
            self.per_tuple_s
            + n_values * self.per_value_s
            + compressed_bytes * self.decompress_per_byte_s
        )


@dataclass
class RuntimeContext:
    """Mutable execution state shared by the operators of one query."""

    device: DeviceModel
    compute: ComputeProfile
    double_buffer: bool = True
    values_per_tuple: float = 1.0
    compressed_bytes_per_tuple: float = 0.0

    # Per-epoch pairing of buffer fills (I/O) and their consumption (CPU).
    _fill_io: list[float] = field(default_factory=list)
    _fill_compute: list[float] = field(default_factory=list)
    _pending_io_s: float = 0.0

    # Cumulative counters (Appendix B resource accounting).
    total_io_s: float = 0.0
    total_compute_s: float = 0.0
    tuples_processed: int = 0

    # ------------------------------------------------------------------
    def charge_device_read(self, n_bytes: float, random: bool, count: int = 1) -> None:
        """I/O for reading ``count`` chunks of ``n_bytes`` from the device."""
        if random:
            t = self.device.random_time(n_bytes, count)
        else:
            t = self.device.sequential_time(n_bytes * count)
        self._pending_io_s += t
        self.total_io_s += t

    def charge_memory_read(self, n_bytes: float) -> None:
        """I/O for a buffer-pool hit (memory-speed transfer)."""
        t = MEMORY.sequential_time(n_bytes)
        self._pending_io_s += t
        self.total_io_s += t

    def end_fill(self, n_tuples: int) -> None:
        """Close one buffer fill: pair its I/O with its SGD compute."""
        compute = n_tuples * self.compute.tuple_compute_s(
            self.values_per_tuple, self.compressed_bytes_per_tuple
        )
        self._fill_io.append(self._pending_io_s)
        self._fill_compute.append(compute)
        self._pending_io_s = 0.0
        self.total_compute_s += compute
        self.tuples_processed += n_tuples

    # ------------------------------------------------------------------
    def epoch_wall_time(self) -> float:
        """Combine this epoch's fills into wall-clock and reset them."""
        if self._pending_io_s:
            # Trailing I/O with no consumer (e.g. a scan that found no
            # tuples) still costs time.
            self._fill_io.append(self._pending_io_s)
            self._fill_compute.append(0.0)
            self._pending_io_s = 0.0
        if self.double_buffer:
            wall = pipelined_time(self._fill_io, self._fill_compute)
        else:
            wall = serial_time(self._fill_io, self._fill_compute)
        self._fill_io.clear()
        self._fill_compute.clear()
        return wall


def overlap_report(stats: "LoaderMetrics | dict") -> dict:
    """Flatten a loader's *measured* overlap counters into one report row.

    The analytic model above predicts double-buffered wall-clock from
    per-fill I/O and compute; the real threaded loaders measure the same
    phenomenon directly (producer stall = loading hidden behind compute,
    consumer wait = compute starved by loading).  This helper reduces a
    :class:`~repro.obs.LoaderMetrics` (or its :meth:`as_dict`
    snapshot) to the row shape the benchmarks and CLI print, so the
    double-buffering figures can show measured overlap next to the analytic
    ``pipelined_time``.
    """
    d = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    return {
        "loader": d.get("name", "loader"),
        "items": d.get("items_consumed", 0),
        "buffers_filled": d.get("buffers_filled", 0),
        "buffers_drained": d.get("buffers_drained", 0),
        "max_queue_depth": d.get("max_queue_depth", 0),
        "producer_stall_s": round(float(d.get("producer_stall_s", 0.0)), REPORT_DIGITS),
        "consumer_wait_s": round(float(d.get("consumer_wait_s", 0.0)), REPORT_DIGITS),
        "overlap_fraction": round(float(d.get("overlap_fraction", 1.0)), 4),
        "threads_started": d.get("threads_started", 0),
        "live_threads": d.get("live_threads", 0),
    }


def overlap_crosscheck(stats: "LoaderMetrics | dict", spans, wall_s: float) -> dict:
    """Audit the counter-measured overlap against independent span data.

    Two routes to the same physical quantity — the seconds during which
    loading genuinely overlapped compute over a consumer-side wall of
    ``wall_s``, for one producer:

    * **counters** (``LoaderMetrics``): the consumer was computing except
      while it waited, and the producer was loading except while it
      stalled, so ``overlap = wall − stall − wait`` (clamped at 0);
    * **spans** (:mod:`repro.obs`): producer busy is the measured
      ``loader.producer`` lifetime minus its ``loader.producer_stall``
      spans; consumer busy is the wall minus the ``loader.consumer_wait``
      spans; the inclusion–exclusion identity gives
      ``overlap = producer_busy + consumer_busy − wall`` (clamped at 0).

    Producer threads that share one stats sink (a ``MultiWorkerLoader``'s
    workers) sum their stalls and lifetimes, so both routes divide the
    producer totals by ``producers``: how many ran at once, the spans'
    summed lifetime over the time any of them was alive (1 for producers
    that follow each other, N for N that run side by side).  Side-by-side
    producers can stall while the consumer waits on another one's queue,
    which the identity does not see; both routes then fall below 0, so
    both clamp there.

    The two must agree within ``max(0.05 s, 10 % of wall)`` (span
    timestamps and counter sums are taken at slightly different instants).
    This cross-check is what exposed the loader's phantom stall (puts into
    a queue with room booking microseconds of lock traffic as stall); it
    stays wired into the fig05/fig13 benches and ``tests/test_obs.py`` as a
    regression guard.

    ``spans`` accepts :class:`~repro.obs.Span` objects or exported span
    events (dicts); only the ``loader.*`` spans matching this loader's name
    are consulted.  Returns a verdict row — callers assert ``row["ok"]``.
    """
    d = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    name = d.get("name", "loader")
    wall_s = float(wall_s)

    def _fields(span) -> tuple[str, float, float, str]:
        if isinstance(span, dict):
            start = float(span.get("start_s", 0.0))
            return (
                span.get("name", ""),
                start,
                float(span.get("end_s", start + float(span.get("duration_s", 0.0)))),
                str(span.get("attrs", {}).get("loader", "")),
            )
        return span.name, span.start, span.end, str(span.attrs.get("loader", ""))

    lifetimes = []
    stall_span_s = wait_span_s = 0.0
    for span in spans:
        span_name, start, end, loader = _fields(span)
        if loader != name:
            continue
        if span_name == "loader.producer":
            lifetimes.append((start, end))
        elif span_name == "loader.producer_stall":
            stall_span_s += end - start
        elif span_name == "loader.consumer_wait":
            wait_span_s += end - start

    producer_life = sum(end - start for start, end in lifetimes)
    alive = _union_s(lifetimes)
    producers = producer_life / alive if alive > 0.0 else 1.0
    producer_busy = max(0.0, producer_life - stall_span_s) / producers
    consumer_busy = max(0.0, wall_s - wait_span_s)
    span_overlap = max(0.0, producer_busy + consumer_busy - wall_s)
    counter_overlap = max(
        0.0,
        wall_s
        - float(d.get("producer_stall_s", 0.0)) / producers
        - float(d.get("consumer_wait_s", 0.0)),
    )
    tolerance_s = max(CROSSCHECK_FLOOR_S, CROSSCHECK_WALL_FRAC * wall_s)
    gap = abs(span_overlap - counter_overlap)
    return {
        "loader": name,
        "wall_s": wall_s,
        "producers": producers,
        "producer_busy_s": producer_busy,
        "consumer_busy_s": consumer_busy,
        "span_overlap_s": span_overlap,
        "counter_overlap_s": counter_overlap,
        "gap_s": gap,
        "tolerance_s": tolerance_s,
        "ok": gap <= tolerance_s,
    }


def _union_s(intervals) -> float:
    """Seconds covered by at least one ``(start, end)`` interval."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered
