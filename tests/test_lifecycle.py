"""Tests for a loader's producer-thread lifecycle and its loader stats.

``PrefetchLoader`` owns one producer thread per pass: its bounded hand-over
queue with cancellable puts, the thread's managed shutdown, and the thread's
visibility in ``threading.enumerate()``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import MultiWorkerLoader, PrefetchLoader, prefetch
from repro.data import make_binary_dense
from repro.obs import LoaderMetrics
from repro.storage import write_block_file


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def producers() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.endswith("-producer")]


def forever():
    i = 0
    while True:
        yield i
        i += 1


def blocked(loader: PrefetchLoader):
    """An iterator whose producer is blocked on its full queue."""
    iterator = iter(loader)
    next(iterator)
    assert wait_until(lambda: loader.stats.items_produced == loader.depth + 1)
    time.sleep(0.05)  # the next put is now waiting for room
    return iterator


class TestProducerChannel:
    """The bounded hand-over queue between the producer and the consumer."""

    def test_put_get_roundtrip(self):
        loader = PrefetchLoader(["a", "b", "c"], depth=2)
        assert list(loader) == ["a", "b", "c"]
        assert loader.stats.items_produced == loader.stats.items_consumed == 3

    def test_put_aborts_once_cancelled(self):
        loader = PrefetchLoader(forever(), depth=1)
        iterator = blocked(loader)
        start = time.perf_counter()
        iterator.close()
        assert time.perf_counter() - start < 1.0
        assert loader.stats.puts_cancelled == 2  # the blocked item, then the end

    def test_terminal_put_is_cancellable(self):
        """The end-of-stream put, blocked on a full queue when the consumer
        leaves, is dropped, not queued: it polls the stop event like any put."""
        loader = PrefetchLoader(range(2), depth=1)
        iterator = iter(loader)
        assert next(iterator) == 0
        assert wait_until(lambda: loader.stats.items_produced == 2)  # queue full
        time.sleep(0.05)  # the end-of-stream put is now waiting for room
        iterator.close()
        assert loader.stats.puts_cancelled == 1
        assert loader.stats.items_produced == 2
        assert loader.stats.live_threads == 0

    def test_terminal_put_not_counted_as_item(self):
        loader = PrefetchLoader(range(5), depth=2)
        assert list(loader) == list(range(5))
        assert loader.stats.items_produced == loader.stats.items_consumed == 5

    def test_drain_empties_queue(self, monkeypatch):
        """Exit drains the queue, which wakes a blocked put at once rather
        than at its next look at the stop event."""
        monkeypatch.setattr(prefetch, "POLL_S", 2.0)
        loader = PrefetchLoader(forever(), depth=3)
        iterator = blocked(loader)
        start = time.perf_counter()
        iterator.close()
        assert time.perf_counter() - start < 1.0
        assert loader.stats.live_threads == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            PrefetchLoader([], depth=0)


class TestThreadRegistry:
    """``threading.enumerate()`` is where loader threads are seen."""

    def test_spawn_registers_and_unregisters(self):
        iterator = iter(PrefetchLoader(range(10), depth=1, name="reg"))
        next(iterator)
        (thread,) = [t for t in threading.enumerate() if t.name == "reg-producer"]
        assert thread.daemon
        assert list(iterator) == list(range(1, 10))
        assert not thread.is_alive()

    def test_global_registry_tracks_loader_threads(self, tmp_path):
        """A multi-worker loader abandoned mid-epoch leaves no producer."""
        path = tmp_path / "t.blocks"
        write_block_file(make_binary_dense(600, 6, seed=0), path, tuples_per_block=25)
        with MultiWorkerLoader(path, 3, 2, batch_size=16, seed=0) as loader:
            iterator = iter(loader)
            for _ in range(3):  # one batch from each worker
                next(iterator)
            assert sorted(producers()) == ["worker0-producer", "worker1-producer", "worker2-producer"]
            iterator.close()
            assert producers() == []
            assert loader.stats.live_threads == 0


class TestManagedProducer:
    """The producer thread of one pass, and its shutdown on every exit."""

    def test_produces_then_end(self):
        loader = PrefetchLoader(range(5), depth=2, name="p")
        assert list(loader) == list(range(5))
        assert loader.stats.threads_started == 1
        assert loader.stats.live_threads == 0
        assert "p-producer" not in producers()

    def test_exception_travels_as_failure(self):
        def source():
            yield 0
            raise RuntimeError("producer on fire")

        loader = PrefetchLoader(source(), depth=1)
        got = []
        with pytest.raises(RuntimeError, match="producer on fire"):
            for item in loader:
                got.append(item)
        assert got == [0]
        assert loader.stats.items_consumed == 1
        assert loader.stats.live_threads == 0

    def test_stop_joins_blocked_producer(self):
        """A consumer that abandons a blocked producer leaves no live thread."""
        baseline = threading.active_count()
        loader = PrefetchLoader(forever(), depth=1, name="p")
        iterator = blocked(loader)
        iterator.close()
        assert "p-producer" not in producers()  # joined, not merely told to stop
        assert loader.stats.live_threads == 0
        assert threading.active_count() == baseline

    def test_stop_raises_on_zombie(self, monkeypatch):
        """A thread that ignores cancellation raises instead of leaking silently."""
        monkeypatch.setattr(prefetch, "JOIN_TIMEOUT_S", 0.2)
        woke = threading.Event()

        def source():
            yield 0
            woke.wait(5.0)  # ignores the stop event past the join timeout
            yield 1

        loader = PrefetchLoader(source(), depth=1, name="zombie")
        iterator = iter(loader)
        assert next(iterator) == 0
        with pytest.raises(RuntimeError, match="zombie"):
            iterator.close()
        assert loader.stats.live_threads == 1  # leak is visible in stats
        assert "zombie-producer" in producers()
        woke.set()  # let the thread die before the next test counts threads
        assert wait_until(lambda: "zombie-producer" not in producers())


class TestLoaderMetrics:
    def test_counters_roundtrip(self):
        stats = LoaderMetrics("s")
        stats.record_put(depth_after=2, stalled_s=0.5)
        stats.record_get(waited_s=0.25)
        stats.record_buffer_filled(10)
        stats.record_buffer_drained(10)
        stats.record_thread_started()
        d = stats.as_dict()
        assert d["items_produced"] == 1
        assert d["items_consumed"] == 1
        assert d["buffers_filled"] == 1
        assert d["buffers_drained"] == 1
        assert d["tuples_buffered"] == 10
        assert d["max_queue_depth"] == 2
        assert d["live_threads"] == 1
        assert d["overlap_fraction"] == pytest.approx(0.5 / 0.75)

    def test_overlap_defaults_to_one_without_waiting(self):
        assert LoaderMetrics().overlap_fraction == 1.0

    def test_reset(self):
        stats = LoaderMetrics()
        stats.record_put(1, 0.1)
        stats.reset()
        assert stats.as_dict()["items_produced"] == 0
        assert stats.producer_stall_s == 0.0

    def test_measured_stall_and_wait(self):
        """Slow consumer → producer stalls; slow producer → consumer waits."""
        stall_stats = LoaderMetrics("stall")
        for _ in PrefetchLoader(range(20), depth=1, stats=stall_stats):
            time.sleep(0.005)
        assert stall_stats.producer_stall_s > 0.0

        def slow_source():
            for i in range(5):
                time.sleep(0.01)
                yield i

        wait_stats = LoaderMetrics("wait")
        list(PrefetchLoader(slow_source(), depth=2, stats=wait_stats))
        assert wait_stats.consumer_wait_s > 0.0
