"""Tests for the managed thread-lifecycle primitives and loader stats."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.lifecycle import (
    END,
    THREADS,
    Failure,
    ManagedProducer,
    ProducerChannel,
    ThreadRegistry,
)
from repro.obs import LoaderMetrics


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestProducerChannel:
    def test_put_get_roundtrip(self):
        channel = ProducerChannel(2, threading.Event(), LoaderMetrics())
        assert channel.put("a") is True
        assert channel.get() == "a"

    def test_put_aborts_once_cancelled(self):
        stop = threading.Event()
        channel = ProducerChannel(1, stop, LoaderMetrics())
        assert channel.put("fills the queue") is True
        stop.set()
        start = time.perf_counter()
        assert channel.put("never lands") is False
        assert time.perf_counter() - start < 1.0

    def test_terminal_put_is_cancellable(self):
        """The END/Failure put must not block forever on a full queue."""
        stop = threading.Event()
        stats = LoaderMetrics()
        channel = ProducerChannel(1, stop, stats)
        channel.put("item")
        stop.set()
        assert channel.put(END, terminal=True) is False
        assert stats.puts_cancelled == 1

    def test_terminal_put_not_counted_as_item(self):
        stats = LoaderMetrics()
        channel = ProducerChannel(2, threading.Event(), stats)
        channel.put("item")
        channel.put(END, terminal=True)
        assert stats.items_produced == 1

    def test_drain_empties_queue(self):
        channel = ProducerChannel(3, threading.Event(), LoaderMetrics())
        for i in range(3):
            channel.put(i)
        assert channel.drain() == 3
        assert channel.depth == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            ProducerChannel(0, threading.Event(), LoaderMetrics())


class TestThreadRegistry:
    def test_spawn_registers_and_unregisters(self):
        registry = ThreadRegistry()
        release = threading.Event()
        thread = registry.spawn(release.wait, name="t")
        assert registry.live_count() == 1
        assert registry.spawned_total == 1
        release.set()
        thread.join(timeout=5.0)
        assert wait_until(lambda: registry.live_count() == 0)

    def test_global_registry_tracks_loader_threads(self):
        from repro.core import PrefetchLoader

        before = THREADS.live_count()
        list(PrefetchLoader(range(10), depth=2))
        assert THREADS.live_count() == before
        assert THREADS.spawned_total >= 1


class TestManagedProducer:
    def test_produces_then_end(self):
        def body(channel):
            for i in range(5):
                if not channel.put(i):
                    return

        with ManagedProducer(body, depth=2, name="p") as producer:
            got = []
            while True:
                item = producer.get()
                if item is END:
                    break
                got.append(item)
        assert got == list(range(5))
        assert producer.stats.live_threads == 0
        assert not producer.is_alive

    def test_exception_travels_as_failure(self):
        def body(channel):
            raise RuntimeError("producer on fire")

        with ManagedProducer(body, depth=1, name="p") as producer:
            item = producer.get()
            assert isinstance(item, Failure)
            with pytest.raises(RuntimeError, match="producer on fire"):
                raise item.error

    def test_stop_joins_blocked_producer(self):
        """A producer blocked on a full queue is unblocked, joined, and gone."""
        baseline = threading.active_count()

        def body(channel):
            i = 0
            while channel.put(i):
                i += 1

        producer = ManagedProducer(body, depth=1, name="p").start()
        producer.get()  # let it run
        time.sleep(0.05)  # producer now blocked on the full depth-1 queue
        producer.stop()
        assert not producer.is_alive
        assert producer.stats.live_threads == 0
        assert wait_until(lambda: threading.active_count() == baseline)

    def test_stop_raises_on_zombie(self):
        """A thread that ignores cancellation raises instead of leaking silently."""
        woke = threading.Event()

        def body(channel):
            woke.wait(1.0)  # ignores the stop event past the join timeout

        producer = ManagedProducer(body, depth=1, name="zombie", join_timeout=0.2).start()
        with pytest.raises(RuntimeError, match="zombie"):
            producer.stop()
        assert producer.stats.live_threads == 1  # leak is visible in stats
        woke.set()  # let the thread die; a later stop() now succeeds
        assert wait_until(lambda: not producer.is_alive)
        producer.stop()
        assert producer.stats.live_threads == 0

    def test_double_start_rejected(self):
        producer = ManagedProducer(lambda channel: None, depth=1).start()
        with pytest.raises(RuntimeError, match="already started"):
            producer.start()
        producer.stop()


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
        from repro.core import PrefetchLoader

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
