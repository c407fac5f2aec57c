"""Threaded prefetching — real double buffering for the data-loading path.

Section 6.3's double buffering overlaps data loading with SGD compute using
two concurrent threads.  The analytic timing model covers the *simulated*
engine; this module implements the mechanism for real on the PyTorch-style
path: a background thread drives the wrapped iterable (e.g. a
:class:`~repro.core.dataloader.DataLoader` over a
:class:`~repro.core.dataset.CorgiPileDataset`) and pushes items into a
bounded queue while the consumer trains on the previous items.  It is the
one place that starts a loader thread: ``MultiWorkerLoader`` runs one per
worker, and Section 6.3's write thread is one over the synchronous
TupleShuffle operator.

Its guarantees:

* **Cooperative cancellation.**  Every blocking put — the terminal one that
  signals end-of-stream or a producer failure too — polls a stop event, so
  the producer never blocks forever against a consumer that walked away.  A
  put that lands after the consumer left counts in ``puts_cancelled``, never
  in ``items_produced``.
* **Deterministic join.**  Any exit of the iteration (exhaustion, a consumer
  exception, an abandoned generator) cancels the producer, drains the queue
  so a blocked put wakes, and joins the thread.  A thread still alive after
  :data:`JOIN_TIMEOUT_S` raises "zombie" and stays counted in
  ``LoaderMetrics.live_threads``: a loud failure, never a silent leak.
* **Errors cross over.**  A producer exception re-raises in the consumer.
* **Observability.**  Every hand-over is timed into a
  :class:`~repro.obs.LoaderMetrics` (a put into a queue with room books 0
  stall), and with tracing on the producer's lifetime and every genuine
  stall and wait become ``loader.*`` spans (checked against the counters by
  :func:`repro.db.timing.overlap_crosscheck`).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Generic, Iterable, Iterator, TypeVar

from .. import obs
from ..obs import LoaderMetrics

__all__ = ["PrefetchLoader"]

T = TypeVar("T")

#: How often a blocked producer, and a consumer joining it, re-check.
POLL_S = 0.05

#: How long an exiting consumer waits for its producer before calling it a zombie.
JOIN_TIMEOUT_S = 5.0

#: End-of-stream sentinel; a producer failure is stored, then signalled by it.
_END = object()


class PrefetchLoader(Generic[T]):
    """Iterate ``source`` through a background producer thread.

    ``depth`` bounds how far the producer may run ahead (two means classic
    double buffering: one item being consumed, one ready, one in flight).
    A fresh producer thread, named ``<name>-producer``, is started for every
    ``iter()`` so the loader can drive one pass per epoch, like the
    DataLoader it wraps; ``stats`` (shared across epochs, and optionally
    across loaders) accumulates the queue/stall/wait counters.
    """

    def __init__(
        self,
        source: Iterable[T],
        depth: int = 2,
        stats: LoaderMetrics | None = None,
        name: str = "prefetch",
    ):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.source = source
        self.depth = int(depth)
        self.stats = stats if stats is not None else LoaderMetrics(name)
        self.name = name

    def __iter__(self) -> Iterator[T]:
        stats = self.stats
        handover: queue.Queue = queue.Queue(maxsize=self.depth)
        stop = threading.Event()
        failure: list[BaseException] = []

        def put(item, counted: bool = True) -> bool:
            """Hand ``item`` over; False (dropping it) once cancelled."""
            start, blocked = time.perf_counter(), False
            while not stop.is_set():
                try:
                    handover.put(item, blocked, POLL_S)
                except queue.Full:
                    blocked = True
                    continue
                if stop.is_set():
                    break  # the exit's drain made room: nobody will read it
                stalled = time.perf_counter() - start if blocked else 0.0
                stats.record_put(handover.qsize(), stalled, counted)
                if blocked and obs.enabled():
                    obs.add_span("loader.producer_stall", start, start + stalled, loader=stats.name)
                return True
            stats.record_cancelled_put(time.perf_counter() - start if blocked else 0.0)
            return False

        def produce() -> None:
            # The span covers the whole lifetime (source + terminal put); its
            # duration minus the stall spans is the producer's busy time.
            with obs.span("loader.producer", loader=stats.name):
                try:
                    for item in self.source:
                        if not put(item):
                            break
                except BaseException as error:
                    failure.append(error)
                put(_END, counted=False)

        thread = threading.Thread(target=produce, name=f"{self.name}-producer", daemon=True)
        stats.record_thread_started()
        thread.start()
        try:
            while True:
                try:
                    item, waited = handover.get_nowait(), 0.0
                except queue.Empty:
                    start = time.perf_counter()
                    item = handover.get()
                    waited = time.perf_counter() - start
                    if obs.enabled():
                        obs.add_span("loader.consumer_wait", start, start + waited, loader=stats.name)
                stats.record_get(waited, counted=item is not _END)
                if item is _END:
                    if failure:
                        raise failure[0]
                    return
                yield item
        finally:
            stop.set()
            deadline = time.monotonic() + JOIN_TIMEOUT_S
            while thread.is_alive():
                # Keep draining: a blocked put may refill the queue between
                # this drain and its next look at the stop event.
                while not handover.empty():
                    handover.get_nowait()
                thread.join(POLL_S)
                if thread.is_alive() and time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"producer thread {thread.name!r} failed to stop within "
                        f"{JOIN_TIMEOUT_S:.1f}s (zombie)"
                    )
            stats.record_thread_joined()
