"""Cross-process transport of the observability counters.

The multi-process engine (:mod:`repro.parallel`) pickles per-worker
``LoaderMetrics``/``StorageMetrics`` back to the coordinator and folds them
into one report; these tests pin the pickle and merge semantics the engine
relies on — including the details that are easy to regress: locks are not
transported (a fresh one is created on load), ``max_queue_depth`` merges by
max rather than sum, and derived properties survive the round-trip.
"""

from __future__ import annotations

import pickle

import pytest

from repro.obs import LoaderMetrics, StorageMetrics
from repro.faults.plan import FaultPlan, FaultSpec


def loaded_loader(name: str = "w") -> LoaderMetrics:
    s = LoaderMetrics(name)
    s.record_put(depth_after=3, stalled_s=0.5)
    s.record_put(depth_after=1, stalled_s=0.25)
    s.record_get(waited_s=0.125)
    s.record_buffer_filled(40)
    s.record_buffer_drained(40)
    s.record_cancelled_put(stalled_s=0.0625)
    s.record_thread_started()
    s.record_thread_joined()
    return s


def loaded_storage(name: str = "s") -> StorageMetrics:
    s = StorageMetrics(name)
    s.record_attempt()
    s.record_ok()
    s.record_fault(ValueError("transient-ish"))
    s.record_retry()
    s.record_latency(0.5)
    s.record_crash()
    s.record_cache_invalidation()
    return s


class TestPickle:
    def test_loader_stats_roundtrip(self):
        s = loaded_loader()
        clone = pickle.loads(pickle.dumps(s))
        assert clone.as_dict() == s.as_dict()
        assert clone._lock is not s._lock
        # the clone keeps working (its lock is real)
        clone.record_put(depth_after=9, stalled_s=0.0)
        assert clone.items_produced == s.items_produced + 1
        assert clone.max_queue_depth == 9

    def test_storage_stats_roundtrip(self):
        s = loaded_storage()
        clone = pickle.loads(pickle.dumps(s))
        assert clone.as_dict() == s.as_dict()
        assert clone.faults_injected == s.faults_injected
        clone.record_retry()
        assert clone.retries == s.retries + 1

    def test_fault_plan_roundtrip_preserves_schedule(self):
        plan = FaultPlan(
            seed=3,
            specs=[FaultSpec(kind="transient", unit="page", target=2, times=2)],
            p_transient=0.4,
            p_torn=0.2,
            max_failures=3,
            crash_at_tuple=100,
        )
        # prime the memo + read-call counters so latch state transports
        plan.decide("block", 5, 1)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.describe() == plan.describe()
        for target in range(16):
            for attempt in (1, 2, 3):
                assert clone.decide("block", target, attempt) == plan.decide(
                    "block", target, attempt
                )
        assert clone.tuples_before_crash(40) == 60

    def test_fault_plan_crash_latch_transports(self):
        plan = FaultPlan(seed=0, crash_at_tuple=5)
        with pytest.raises(Exception):
            plan.fire_crash()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.tuples_before_crash(0) is None  # fired latch survived


class TestMerge:
    def test_sum_and_max_fields(self):
        a, b = loaded_loader("a"), loaded_loader("b")
        b.record_put(depth_after=7, stalled_s=1.0)  # deeper queue than a
        total = a + b
        assert total.items_produced == a.items_produced + b.items_produced
        assert total.producer_stall_s == pytest.approx(
            a.producer_stall_s + b.producer_stall_s
        )
        assert total.max_queue_depth == 7  # max, not sum
        assert total.name == "a+b"

    def test_add_preserves_shared_name(self):
        total = loaded_loader("w") + loaded_loader("w")
        assert total.name == "w"

    def test_add_leaves_operands_untouched(self):
        a, b = loaded_loader("a"), loaded_loader("b")
        before_a, before_b = a.as_dict(), b.as_dict()
        a + b
        assert a.as_dict() == before_a
        assert b.as_dict() == before_b

    def test_iadd_merges_in_place(self):
        a, b = loaded_loader("a"), loaded_loader("b")
        want = a.items_consumed + b.items_consumed
        a += b
        assert a.items_consumed == want

    def test_merge_storage(self):
        a, b = loaded_storage("a"), loaded_storage("b")
        total = a + b
        assert total.read_attempts == 2
        assert total.faults_injected == a.faults_injected + b.faults_injected
        assert total.latency_injected_s == pytest.approx(1.0)

    def test_merge_rejects_cross_type(self):
        with pytest.raises(TypeError):
            LoaderMetrics("a").merge(loaded_storage())
        with pytest.raises(TypeError):
            LoaderMetrics("a") + loaded_storage()  # noqa: B018 - operator raises

    def test_merge_many_workers_matches_manual_total(self):
        workers = [loaded_loader(f"w{i}") for i in range(4)]
        total = LoaderMetrics("all")
        for w in workers:
            total.merge(pickle.loads(pickle.dumps(w)))  # as the engine does
        assert total.items_produced == sum(w.items_produced for w in workers)
        assert total.tuples_buffered == sum(w.tuples_buffered for w in workers)
        assert total.overlap_fraction == pytest.approx(workers[0].overlap_fraction)
