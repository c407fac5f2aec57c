"""The loader/storage counter classes.

:class:`LoaderMetrics` counts the loading stack's hand-overs (items, queue
depths, producer stalls, consumer waits, thread starts/joins) and
:class:`StorageMetrics` the fault plane's reads (attempts, faults, retries,
latency).  Both pickle across process boundaries and merge through the
:func:`repro.obs.merge` facade — the single entry point that also merges
registries and tracers; loader/storage cross-family merges raise
``TypeError``.
"""

from __future__ import annotations

import threading

__all__ = ["MergeableStats", "LoaderMetrics", "StorageMetrics", "merge_stats"]


class MergeableStats:
    """Pickle + merge machinery shared by the counter classes.

    Counters must cross process boundaries for the multi-process engine
    (:mod:`repro.parallel`): workers pickle their stats back to the
    coordinator, which folds them into one report.  Pickling snapshots the
    counters and drops the lock (locks are not process-transportable); the
    unpickled copy gets a fresh lock and stays fully functional.

    Merging is declarative: ``_SUM_FIELDS`` add, ``_MAX_FIELDS`` take the
    max (queue depths don't add across processes).
    """

    _SUM_FIELDS: tuple[str, ...] = ()
    _MAX_FIELDS: tuple[str, ...] = ()

    name: str
    _lock: threading.Lock

    @classmethod
    def _family(cls) -> type:
        """The canonical base deciding merge compatibility.

        Walking the MRO for the family root lets a subclass merge with its
        canonical form while cross-family merges (loader vs storage) fail
        loudly.
        """
        for base in cls.__mro__:
            if "_FAMILY_ROOT" in base.__dict__:
                return base
        return cls

    def _counter_snapshot(self) -> dict:
        with self._lock:
            return {f: getattr(self, f) for f in self._SUM_FIELDS + self._MAX_FIELDS}

    def __getstate__(self) -> dict:
        state = self._counter_snapshot()
        state["name"] = self.name
        return state

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._lock = threading.Lock()
        self.reset()
        for field in self._SUM_FIELDS + self._MAX_FIELDS:
            setattr(self, field, state[field])

    def reset(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def merge(self, other: "MergeableStats") -> "MergeableStats":
        """Fold ``other``'s counters into this instance (in place).

        Routed through the public facade so *every* telemetry merge in the
        repo — stats, registries, tracers — goes through one API.
        """
        from . import merge as _facade_merge  # circular-safe at call time

        return _facade_merge(self, other)

    def _fold(self, other: "MergeableStats") -> "MergeableStats":
        if (
            not isinstance(other, MergeableStats)
            or other._family() is not self._family()
        ):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        snap = other._counter_snapshot()
        with self._lock:
            for field in self._SUM_FIELDS:
                setattr(self, field, getattr(self, field) + snap[field])
            for field in self._MAX_FIELDS:
                setattr(self, field, max(getattr(self, field), snap[field]))
        return self

    def __add__(self, other: "MergeableStats") -> "MergeableStats":
        if not isinstance(other, MergeableStats) or other._family() is not self._family():
            return NotImplemented
        name = self.name if self.name == other.name else f"{self.name}+{other.name}"
        # The sum of two subclass instances is the canonical family class.
        total = self._family()(name)
        total._fold(self)
        total._fold(other)
        return total

    def __iadd__(self, other: "MergeableStats") -> "MergeableStats":
        if not isinstance(other, MergeableStats) or other._family() is not self._family():
            return NotImplemented
        return self._fold(other)

    # -- registry projection -------------------------------------------
    def to_registry(self, registry, prefix: str | None = None) -> None:
        """Project these counters into a :class:`~repro.obs.Registry`.

        Sum fields become counters, max fields become gauges, all under
        ``<prefix>.<field>`` (prefix defaults to the instance name).
        """
        prefix = self.name if prefix is None else prefix
        snap = self._counter_snapshot()
        for field in self._SUM_FIELDS:
            registry.inc(f"{prefix}.{field}", snap[field])
        for field in self._MAX_FIELDS:
            registry.set_max(f"{prefix}.{field}", snap[field])


def merge_stats(into: MergeableStats, other: MergeableStats) -> MergeableStats:
    """The stats arm of :func:`repro.obs.merge` (family-checked fold)."""
    return into._fold(other)


class LoaderMetrics(MergeableStats):
    """Thread-safe counters for one loader (or one family of loaders).

    A single instance may be shared by several producer threads (e.g. the
    per-worker prefetchers of a ``MultiWorkerLoader``); all counters then
    aggregate across them.  Instances pickle (snapshot, fresh lock on load)
    and merge across processes — see :class:`MergeableStats`.
    """

    _FAMILY_ROOT = True
    _SUM_FIELDS = (
        "items_produced",
        "items_consumed",
        "buffers_filled",
        "buffers_drained",
        "tuples_buffered",
        "producer_stall_s",
        "consumer_wait_s",
        "puts_cancelled",
        "threads_started",
        "threads_joined",
    )
    _MAX_FIELDS = ("max_queue_depth",)

    def __init__(self, name: str = "loader"):
        self.name = name
        self._lock = threading.Lock()
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.items_produced = 0
            self.items_consumed = 0
            self.buffers_filled = 0
            self.buffers_drained = 0
            self.tuples_buffered = 0
            self.producer_stall_s = 0.0
            self.consumer_wait_s = 0.0
            self.puts_cancelled = 0
            self.threads_started = 0
            self.threads_joined = 0
            self.max_queue_depth = 0

    # -- producer side --------------------------------------------------
    def record_put(self, depth_after: int, stalled_s: float, counted: bool = True) -> None:
        """One successful hand-over; ``stalled_s`` spent blocked on a full queue.

        Terminal sentinel puts pass ``counted=False``: their stall time is
        real but they are not produced items.
        """
        with self._lock:
            if counted:
                self.items_produced += 1
            self.producer_stall_s += stalled_s
            if depth_after > self.max_queue_depth:
                self.max_queue_depth = depth_after

    def record_cancelled_put(self, stalled_s: float) -> None:
        """A put abandoned because the consumer cancelled the producer."""
        with self._lock:
            self.puts_cancelled += 1
            self.producer_stall_s += stalled_s

    def record_buffer_filled(self, n_tuples: int) -> None:
        with self._lock:
            self.buffers_filled += 1
            self.tuples_buffered += int(n_tuples)

    # -- consumer side --------------------------------------------------
    def record_get(self, waited_s: float, counted: bool = True) -> None:
        """One item received; ``waited_s`` spent blocked on an empty queue."""
        with self._lock:
            self.consumer_wait_s += waited_s
            if counted:
                self.items_consumed += 1

    def record_buffer_drained(self, n_tuples: int) -> None:  # noqa: ARG002
        with self._lock:
            self.buffers_drained += 1

    # -- thread lifecycle ------------------------------------------------
    def record_thread_started(self) -> None:
        with self._lock:
            self.threads_started += 1

    def record_thread_joined(self) -> None:
        with self._lock:
            self.threads_joined += 1

    # ------------------------------------------------------------------
    @property
    def live_threads(self) -> int:
        """Producer threads started but not yet joined (0 after clean shutdown)."""
        return self.threads_started - self.threads_joined

    @property
    def overlap_fraction(self) -> float:
        """Share of cross-thread blocking borne by the producer.

        1.0 → loading fully hidden behind compute; 0.0 → consumer starved.
        With no measurable blocking on either side, reports 1.0 (perfect
        overlap by absence of waiting).
        """
        total = self.producer_stall_s + self.consumer_wait_s
        if total <= 0.0:
            return 1.0
        return self.producer_stall_s / total

    def as_dict(self) -> dict:
        """Snapshot every counter (plus derived fields) as a plain dict."""
        with self._lock:
            return {
                "name": self.name,
                "items_produced": self.items_produced,
                "items_consumed": self.items_consumed,
                "buffers_filled": self.buffers_filled,
                "buffers_drained": self.buffers_drained,
                "tuples_buffered": self.tuples_buffered,
                "producer_stall_s": self.producer_stall_s,
                "consumer_wait_s": self.consumer_wait_s,
                "puts_cancelled": self.puts_cancelled,
                "threads_started": self.threads_started,
                "threads_joined": self.threads_joined,
                "live_threads": self.threads_started - self.threads_joined,
                "max_queue_depth": self.max_queue_depth,
                "overlap_fraction": (
                    self.producer_stall_s
                    / (self.producer_stall_s + self.consumer_wait_s)
                    if (self.producer_stall_s + self.consumer_wait_s) > 0.0
                    else 1.0
                ),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.as_dict()
        body = ", ".join(f"{k}={v}" for k, v in d.items() if k != "name")
        return f"{type(self).__name__}({self.name!r}, {body})"


class StorageMetrics(MergeableStats):
    """Thread-safe counters for the fault-aware storage read path.

    One instance is shared by a fault injector
    (:class:`~repro.faults.store.FaultyBlockFileReader` /
    :class:`~repro.faults.store.FaultyHeapFile`), the verified readers, and
    the :class:`~repro.storage.retry.RetryPolicy` driving them, so a chaos
    run reports the full picture: how many faults were injected, how many
    retries absorbed them, and whether any read was abandoned.  The headline
    invariant (asserted by ``tests/test_faults.py``) is that for
    transient-only fault plans every counter except ``exhausted_reads`` may
    be nonzero while the trained model stays bit-identical to a fault-free
    run — retries are invisible above the storage layer.

    Instances pickle and merge across processes — see
    :class:`MergeableStats`.
    """

    _FAMILY_ROOT = True
    _SUM_FIELDS = (
        "read_attempts",
        "reads_ok",
        "transient_errors",
        "checksum_failures",
        "retries",
        "exhausted_reads",
        "latency_events",
        "latency_injected_s",
        "crashes_injected",
        "cache_invalidations",
    )

    def __init__(self, name: str = "storage"):
        self.name = name
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.read_attempts = 0
            self.reads_ok = 0
            self.transient_errors = 0
            self.checksum_failures = 0
            self.retries = 0
            self.exhausted_reads = 0
            self.latency_injected_s = 0.0
            self.latency_events = 0
            self.crashes_injected = 0
            self.cache_invalidations = 0

    # -- retry loop ------------------------------------------------------
    def record_attempt(self) -> None:
        with self._lock:
            self.read_attempts += 1

    def record_ok(self) -> None:
        with self._lock:
            self.reads_ok += 1

    def record_fault(self, error: Exception) -> None:
        """Classify one failed attempt by its error type."""
        # Late import would be circular at module load; classify by name so
        # this module keeps zero intra-package imports.
        kind = type(error).__name__
        with self._lock:
            if kind == "ChecksumError":
                self.checksum_failures += 1
            else:
                self.transient_errors += 1

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def record_exhausted(self) -> None:
        with self._lock:
            self.exhausted_reads += 1

    # -- injection side --------------------------------------------------
    def record_latency(self, seconds: float) -> None:
        with self._lock:
            self.latency_events += 1
            self.latency_injected_s += float(seconds)

    def record_crash(self) -> None:
        with self._lock:
            self.crashes_injected += 1

    def record_cache_invalidation(self) -> None:
        with self._lock:
            self.cache_invalidations += 1

    # --------------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        """Total injected fault events (errors + corruptions + latency)."""
        return self.transient_errors + self.checksum_failures + self.latency_events

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "read_attempts": self.read_attempts,
                "reads_ok": self.reads_ok,
                "transient_errors": self.transient_errors,
                "checksum_failures": self.checksum_failures,
                "retries": self.retries,
                "exhausted_reads": self.exhausted_reads,
                "latency_events": self.latency_events,
                "latency_injected_s": self.latency_injected_s,
                "crashes_injected": self.crashes_injected,
                "cache_invalidations": self.cache_invalidations,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.as_dict()
        body = ", ".join(f"{k}={v}" for k, v in d.items() if k != "name")
        return f"{type(self).__name__}({self.name!r}, {body})"
