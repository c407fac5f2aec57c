"""The loader and storage scopes: event vocabularies over a registry.

:class:`LoaderMetrics` counts the loading stack's hand-overs (items, queue
depths, stalls, waits, thread starts/joins) and :class:`StorageMetrics` the
fault plane's reads (attempts, faults, retries, latency).  Each is a named
:class:`~repro.obs.registry.Scope`: a private registry whose counters and
gauges are the scope's fields, written by the ``record_*`` events and read
as attributes; pickle, merge and reset are that registry's.

The ``session=`` names below (``storage.retry.*``, ``shuffle.buffer.*``,
``storage.bufferpool.invalidations``, ``faults.*``) are where the session
registry counts the same event; a site handed no scope records into
:data:`SESSION_LOADER` / :data:`SESSION_STORAGE`.
"""

from __future__ import annotations

from .registry import SESSION, Scope

__all__ = ["LoaderMetrics", "StorageMetrics", "SESSION_LOADER", "SESSION_STORAGE"]


class LoaderMetrics(Scope):
    """Thread-safe counters for one loader — or one family of loaders: an
    instance shared by several producer threads (e.g. the per-worker
    prefetchers of a ``MultiWorkerLoader``) aggregates across them."""

    _FIELDS = {
        "items_produced": 0, "items_consumed": 0, "buffers_filled": 0,
        "buffers_drained": 0, "tuples_buffered": 0, "producer_stall_s": 0.0,
        "consumer_wait_s": 0.0, "puts_cancelled": 0, "threads_started": 0,
        "threads_joined": 0, "max_queue_depth": 0,
    }
    _GAUGES = ("max_queue_depth",)
    _DERIVED = ("live_threads", "overlap_fraction")

    def __init__(self, name: str = "loader"):
        super().__init__(name)

    def record_put(self, depth_after: int, stalled_s: float, counted: bool = True) -> None:
        """One successful hand-over; ``stalled_s`` spent blocked on a full
        queue.  Terminal sentinel puts pass ``counted=False``: their stall
        time is real but they are not produced items."""
        if counted:
            self._count("items_produced")
        self._count("producer_stall_s", stalled_s)
        self._count("max_queue_depth", depth_after)

    def record_cancelled_put(self, stalled_s: float) -> None:
        """A put abandoned because the consumer cancelled the producer."""
        self._count("puts_cancelled")
        self._count("producer_stall_s", stalled_s)

    def record_get(self, waited_s: float, counted: bool = True) -> None:
        """One item received; ``waited_s`` spent blocked on an empty queue."""
        self._count("consumer_wait_s", waited_s)
        if counted:
            self._count("items_consumed")

    def record_buffer_filled(self, n_tuples: int) -> None:
        self._count("buffers_filled")
        self._count("tuples_buffered", int(n_tuples))

    def record_buffer_drained(self, n_tuples: int) -> None:
        self._count("buffers_drained", session="shuffle.buffer.drains")
        SESSION.inc("shuffle.buffer.tuples_drained", int(n_tuples))

    def record_thread_started(self) -> None:
        self._count("threads_started")

    def record_thread_joined(self) -> None:
        self._count("threads_joined")

    @property
    def live_threads(self) -> int:
        """Producer threads started but not yet joined (0 after clean shutdown)."""
        return self.threads_started - self.threads_joined

    @property
    def overlap_fraction(self) -> float:
        """Share of cross-thread blocking borne by the producer: 1.0 → loading
        fully hidden behind compute (or nobody ever blocked), 0.0 → consumer
        starved."""
        stall, wait = self.producer_stall_s, self.consumer_wait_s
        return stall / (stall + wait) if stall + wait > 0.0 else 1.0


class StorageMetrics(Scope):
    """Thread-safe counters for the fault-aware storage read path.

    One instance is shared by a fault injector (``repro.faults.store``), the
    verified readers and the :class:`~repro.storage.retry.RetryPolicy`
    driving them, so a chaos run reports the full picture: faults injected,
    retries that absorbed them, reads abandoned.  The headline invariant
    (``tests/test_faults.py``): under a transient-only plan every counter
    but ``exhausted_reads`` may be nonzero while the trained model stays
    bit-identical to a fault-free run — retries are invisible above storage.
    """

    _FIELDS = {
        "read_attempts": 0, "reads_ok": 0, "transient_errors": 0,
        "checksum_failures": 0, "retries": 0, "exhausted_reads": 0,
        "latency_events": 0, "latency_injected_s": 0.0, "crashes_injected": 0,
        "cache_invalidations": 0,
    }

    def __init__(self, name: str = "storage"):
        super().__init__(name)

    # -- retry loop ------------------------------------------------------
    def record_attempt(self) -> None:
        self._count("read_attempts")

    def record_ok(self) -> None:
        self._count("reads_ok")

    def record_fault(self, error: Exception) -> None:
        """Classify one failed attempt by its error type."""
        # By name: this package imports nothing from the rest of ``repro``.
        kind = type(error).__name__
        field = "checksum_failures" if kind == "ChecksumError" else "transient_errors"
        self._count(field, session=f"storage.retry.{kind}")

    def record_retry(self) -> None:
        self._count("retries", session="storage.retry.retries")

    def record_exhausted(self) -> None:
        self._count("exhausted_reads", session="storage.retry.exhausted")

    # -- injection side --------------------------------------------------
    def record_latency(self, seconds: float) -> None:
        self._count("latency_events", session="faults.latency_events")
        self._count("latency_injected_s", float(seconds), session="faults.latency_injected_s")

    def record_crash(self) -> None:
        self._count("crashes_injected", session="faults.crashes_injected")

    def record_cache_invalidation(self) -> None:
        self._count("cache_invalidations", session="storage.bufferpool.invalidations")

    @property
    def faults_injected(self) -> int:
        """Total injected fault events (errors + corruptions + latency)."""
        return self.transient_errors + self.checksum_failures + self.latency_events


#: What an event site handed no scope records into: the events' session names
#: only, no private count (so these two have no fields to read).
SESSION_LOADER, SESSION_STORAGE = LoaderMetrics("session"), StorageMetrics("session")
SESSION_LOADER._registry = SESSION_STORAGE._registry = None
