"""Managed thread lifecycle for the concurrent loading stack.

CorgiPile's speedup rests on its concurrent loading path — the two
data-loading workers of Section 5.1 and the double-buffered TupleShuffle of
Section 6.3.  One loader spawns producer threads,
:class:`~repro.core.prefetch.PrefetchLoader`, on the primitives here; the
:class:`~repro.core.multiworker.MultiWorkerLoader` runs one per worker, and
Section 6.3's write thread is one over the synchronous TupleShuffle
operator.  The primitives provide the guarantees a per-loader thread cannot:

* **Cooperative cancellation.**  :class:`ProducerChannel` wraps a bounded
  queue whose *every* blocking ``put`` — including the terminal sentinel put
  that signals end-of-stream or a producer failure — polls a stop event, so
  a producer can never block forever against a consumer that walked away.
* **Deterministic join.**  :class:`ManagedProducer` is a context manager
  that, on *any* exit path (exhaustion, consumer exception, abandoned
  iteration via ``GeneratorExit``), cancels the producer, drains the queue
  to unblock it, joins the thread, and **asserts that it actually died** —
  a zombie raises instead of leaking.
* **Observability.**  Every hand-over is timed into a
  :class:`~repro.obs.LoaderMetrics`, producer lifetimes and genuine
  stall/wait intervals become :mod:`repro.obs` spans when tracing is on,
  and every spawned thread is tracked by a :class:`ThreadRegistry` so tests
  and dashboards can ask how many loader threads are alive right now.

Sentinels: producers finish by enqueueing :data:`END`; producer exceptions
travel as :class:`Failure` wrappers and are re-raised on the consumer side.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from .. import obs
from ..obs import LoaderMetrics

__all__ = [
    "END",
    "Failure",
    "ProducerChannel",
    "ManagedProducer",
    "ThreadRegistry",
    "THREADS",
]

#: End-of-stream sentinel enqueued (cancellably) after the producer body returns.
END = object()

#: How often blocked producers/consumers re-check for cancellation.
POLL_S = 0.05


class Failure:
    """Carries a producer-side exception across the queue for re-raising."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Failure({self.error!r})"


class ThreadRegistry:
    """Tracks every live managed loader thread.

    All loader threads are spawned through :meth:`spawn`, which registers
    the thread, names it, daemonises it (a belt-and-braces backstop — the
    managed join is what actually prevents leaks), and removes it from the
    registry when its target returns.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._threads: set[threading.Thread] = set()
        self._spawned_total = 0

    def spawn(self, target: Callable[[], None], name: str) -> threading.Thread:
        """Start a registered daemon thread running ``target``."""
        holder: list[threading.Thread] = []

        def run() -> None:
            try:
                target()
            finally:
                with self._lock:
                    self._threads.discard(holder[0])

        thread = threading.Thread(target=run, daemon=True, name=name)
        holder.append(thread)
        with self._lock:
            self._threads.add(thread)
            self._spawned_total += 1
        thread.start()
        return thread

    def live_threads(self) -> list[threading.Thread]:
        with self._lock:
            return [t for t in self._threads if t.is_alive()]

    def live_count(self) -> int:
        return len(self.live_threads())

    @property
    def spawned_total(self) -> int:
        with self._lock:
            return self._spawned_total


#: Process-wide registry used by default for all loader threads.
THREADS = ThreadRegistry()


class ProducerChannel:
    """A bounded hand-over queue with cooperative cancellation.

    The producer side calls :meth:`put`, which blocks while the queue is
    full but aborts (returning ``False``) as soon as the stop event is set —
    crucially *also* for terminal sentinel puts, so a producer whose
    consumer abandoned iteration mid-epoch can always run to completion.
    """

    def __init__(self, depth: int, stop: threading.Event, stats: LoaderMetrics):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self._q: queue.Queue = queue.Queue(maxsize=depth)
        self._stop = stop
        self.stats = stats

    # -- producer side --------------------------------------------------
    @property
    def cancelled(self) -> bool:
        """True once the consumer has asked the producer to stop."""
        return self._stop.is_set()

    def put(self, item: Any, terminal: bool = False) -> bool:
        """Enqueue ``item``; return False (dropping it) once cancelled.

        ``terminal`` marks sentinel puts (:data:`END` / :class:`Failure`),
        which are not counted as produced items.
        """
        if not self._stop.is_set():
            # Fast path: a put into a queue with room is not a stall.  The
            # timed slow path below costs microseconds of lock traffic per
            # put, which used to be booked as producer stall — thousands of
            # non-blocking puts accumulated into a phantom stall total that
            # skewed overlap_fraction toward the producer (caught by the
            # span/counter cross-check in repro.db.timing).
            try:
                self._q.put_nowait(item)
            except queue.Full:
                pass
            else:
                self.stats.record_put(self._q.qsize(), 0.0, counted=not terminal)
                return True
        start = time.perf_counter()
        while not self._stop.is_set():
            try:
                self._q.put(item, timeout=POLL_S)
            except queue.Full:
                continue
            stalled = time.perf_counter() - start
            self.stats.record_put(self._q.qsize(), stalled, counted=not terminal)
            if stalled > 0.0 and obs.enabled():
                end = start + stalled
                obs.add_span(
                    "loader.producer_stall", start, end, loader=self.stats.name
                )
            return True
        stalled = time.perf_counter() - start
        self.stats.record_cancelled_put(stalled)
        return False

    # -- consumer side --------------------------------------------------
    def get(self) -> Any:
        """Dequeue the next item, timing how long the consumer waited."""
        try:
            item = self._q.get_nowait()
            waited = 0.0
        except queue.Empty:
            start = time.perf_counter()
            item = self._q.get()
            waited = time.perf_counter() - start
            if waited > 0.0 and obs.enabled():
                obs.add_span(
                    "loader.consumer_wait", start, start + waited, loader=self.stats.name
                )
        self.stats.record_get(waited, counted=not (item is END or isinstance(item, Failure)))
        return item

    def drain(self) -> int:
        """Discard everything currently queued (unblocks a pending put)."""
        dropped = 0
        while True:
            try:
                self._q.get_nowait()
                dropped += 1
            except queue.Empty:
                return dropped

    @property
    def depth(self) -> int:
        return self._q.qsize()


class ManagedProducer:
    """Runs ``body(channel)`` on a registered thread with a managed shutdown.

    ``body`` receives the :class:`ProducerChannel`; it should hand items
    over with ``channel.put(item)`` and return as soon as a put reports
    cancellation (or ``channel.cancelled`` turns true between expensive
    steps).  After the body returns, :data:`END` is enqueued cancellably; if
    it raises, the exception is wrapped in :class:`Failure` and enqueued
    instead, to be re-raised by the consumer.

    Use as a context manager: ``__exit__`` (any path) cancels the producer,
    drains the channel so a blocked put wakes up, joins the thread, and
    raises ``RuntimeError`` if the thread outlives ``join_timeout`` — a
    zombie is a loud failure, never a silent leak.
    """

    def __init__(
        self,
        body: Callable[[ProducerChannel], None],
        depth: int,
        name: str = "producer",
        stats: LoaderMetrics | None = None,
        registry: ThreadRegistry = THREADS,
        join_timeout: float = 5.0,
    ):
        self._body = body
        self._depth = int(depth)
        self.name = name
        self.stats = stats if stats is not None else LoaderMetrics(name)
        self._registry = registry
        self._join_timeout = float(join_timeout)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.channel: ProducerChannel | None = None

    # ------------------------------------------------------------------
    def start(self) -> "ManagedProducer":
        if self._thread is not None:
            raise RuntimeError("producer already started")
        self._stop = threading.Event()
        self.channel = ProducerChannel(self._depth, self._stop, self.stats)
        channel = self.channel

        def run() -> None:
            # The span covers the producer's whole lifetime (body + terminal
            # put); its duration minus the recorded stall spans is the
            # producer's *busy* time in the overlap identity checked by
            # repro.db.timing.overlap_crosscheck.
            with obs.span("loader.producer", loader=self.stats.name):
                try:
                    self._body(channel)
                except BaseException as error:
                    channel.put(Failure(error), terminal=True)
                else:
                    channel.put(END, terminal=True)

        self.stats.record_thread_started()
        self._thread = self._registry.spawn(run, name=self.name)
        return self

    def get(self) -> Any:
        """Receive the next item (or :data:`END` / :class:`Failure`)."""
        if self.channel is None:
            raise RuntimeError("producer not started")
        return self.channel.get()

    @property
    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self) -> None:
        """Cancel, drain, join — and assert the thread actually died."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        deadline = time.monotonic() + self._join_timeout
        while thread.is_alive():
            # Keep draining: the producer may be blocked on a full queue and
            # re-fill it between our drain and its next cancellation check.
            self.channel.drain()
            thread.join(timeout=POLL_S)
            if thread.is_alive() and time.monotonic() >= deadline:
                raise RuntimeError(
                    f"producer thread {self.name!r} failed to stop within "
                    f"{self._join_timeout:.1f}s (zombie)"
                )
        self.channel.drain()
        self._thread = None
        self.stats.record_thread_joined()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ManagedProducer":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
