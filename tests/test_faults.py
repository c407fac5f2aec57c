"""The fault plane: plans, faulty stores, retry/checksum, fault-invisibility.

The headline property (ISSUE satellite a): for *any* seeded transient-only
fault plan, training through the faulty storage stack is **bit-identical**
to the fault-free run — checksums catch torn reads, bounded retries absorb
transient errors, and the visit order never changes.  ``CHAOS_SEED`` (set
by the CI chaos-smoke matrix) shifts every seed in this file so each matrix
job explores a different schedule.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CorgiPileDataset, DataLoader
from repro.data import make_binary_dense
from repro.db import MiniDB
from repro.faults import (
    FaultPlan,
    FaultSpec,
    FaultyBlockFileReader,
    FaultyHeapFile,
    InjectedCrash,
    chaos_report,
    corrupt_bytes,
    faulty_reader_factory,
    faulty_table,
)
from repro.ml import LogisticRegression, train_streaming
from repro.obs import StorageMetrics
from repro.storage import (
    BlockFileReader,
    BufferPool,
    ChecksumError,
    HeapFile,
    ReadExhaustedError,
    RetryPolicy,
    TransientReadError,
    write_block_file,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def block_file(tmp_path_factory):
    ds = make_binary_dense(400, 8, separation=1.2, seed=2)
    path = tmp_path_factory.mktemp("faults") / "data.blocks"
    write_block_file(ds, path, tuples_per_block=25)
    return path, ds


# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_random_draws_are_pure_functions_of_seed_and_unit(self):
        a = FaultPlan(seed=9, p_transient=0.5, p_torn=0.5, max_failures=3)
        b = FaultPlan(seed=9, p_transient=0.5, p_torn=0.5, max_failures=3)
        for target in range(30):
            assert a.decide("block", target, 1) == b.decide("block", target, 1)

    def test_draws_independent_of_read_interleaving(self):
        plan = FaultPlan(seed=3, p_transient=0.5, max_failures=2)
        forward = [plan.decide("block", t, 1) for t in range(20)]
        other = FaultPlan(seed=3, p_transient=0.5, max_failures=2)
        backward = [other.decide("block", t, 1) for t in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_spec_from_read_window(self):
        plan = FaultPlan(specs=[FaultSpec("transient", unit="page", target=4, from_read=2)])
        assert plan.decide("page", 4, 1).clean  # read call 1: before the window
        assert plan.decide("page", 4, 1).transient  # read call 2
        decision = plan.decide("page", 4, 2)  # retry of read call 2
        assert not decision.transient  # times=1: only attempt 1 fails

    def test_spec_times_bounds_consecutive_failures(self):
        plan = FaultPlan(specs=[FaultSpec("transient", target=0, times=3)])
        assert [plan.decide("block", 0, a).transient for a in (1, 2, 3, 4)] == [
            True,
            True,
            True,
            False,
        ]
        assert plan.max_consecutive_failures == 3

    def test_random_budget_covers_stacked_transient_and_torn(self):
        plan = FaultPlan(seed=0, p_transient=1.0, p_torn=1.0, max_failures=2)
        # transient fails come first, then torn ones; the advertised budget
        # must cover the stack, or retries can exhaust on a transient-only plan.
        assert plan.max_consecutive_failures == 4
        worst = plan.max_consecutive_failures
        decision = plan.decide("block", 0, worst + 1)
        assert not (decision.transient or decision.corrupt)

    def test_latency_spec_applies_to_whole_window(self):
        plan = FaultPlan(specs=[FaultSpec("latency", target=1, delay_s=0.25)])
        assert plan.decide("block", 1, 1).delay_s == 0.25
        assert plan.decide("block", 1, 1).delay_s == 0.25

    def test_crash_latch_fires_once(self):
        plan = FaultPlan(crash_at_tuple=10)
        assert plan.tuples_before_crash(4) == 6
        with pytest.raises(InjectedCrash):
            plan.fire_crash("test")
        assert plan.tuples_before_crash(99) is None  # resumed run survives
        plan.reset()
        assert plan.tuples_before_crash(4) == 6

    def test_transient_only_classification(self):
        assert FaultPlan(p_transient=0.5, p_torn=0.5, p_latency=0.5).transient_only
        assert not FaultPlan(crash_at_tuple=5).transient_only
        assert not FaultPlan(specs=[FaultSpec("crash", target=0)]).transient_only

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor")
        with pytest.raises(ValueError):
            FaultSpec("transient", unit="galaxy")
        with pytest.raises(ValueError):
            FaultSpec("transient", times=0)
        with pytest.raises(ValueError):
            FaultSpec("transient", from_read=0)
        with pytest.raises(ValueError):
            FaultSpec("latency", delay_s=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(p_transient=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_failures=0)
        with pytest.raises(ValueError):
            FaultPlan(latency_s=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(crash_at_tuple=-1)
        with pytest.raises(ValueError):
            plan = FaultPlan()
            plan.decide("block", 0, 0)
        with pytest.raises(ValueError):
            FaultPlan().decide("galaxy", 0, 1)

    def test_random_latency_draw_applies_on_first_attempt(self):
        plan = FaultPlan.random(3, p_transient=0.0, p_latency=1.0, latency_s=0.005)
        first = plan.decide("block", 0, 1)
        assert first.delay_s == 0.005
        # Latency is a per-read spike, not per-attempt: retries run full speed.
        assert plan.decide("block", 0, 2).delay_s == 0.0

    def test_crash_spec_in_decide(self):
        plan = FaultPlan(specs=[FaultSpec("crash", unit="block", target=2, from_read=2)])
        assert not plan.decide("block", 2, 1).crash
        assert plan.decide("block", 2, 1).crash  # second read call

    def test_describe_is_json_able(self):
        import json

        json.dumps(FaultPlan(seed=1, p_transient=0.1, crash_at_tuple=9).describe())


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        stats = StorageMetrics("t")
        calls = []

        def attempt(a):
            calls.append(a)
            if a < 3:
                raise TransientReadError("flaky")
            return "data"

        assert RetryPolicy(max_attempts=4).run(attempt, stats=stats) == "data"
        assert calls == [1, 2, 3]
        assert stats.retries == 2 and stats.reads_ok == 1
        assert stats.transient_errors == 2

    def test_exhaustion_raises_with_context(self):
        policy = RetryPolicy(max_attempts=2)
        stats = StorageMetrics("t")
        with pytest.raises(ReadExhaustedError) as err:
            policy.run(
                lambda a: (_ for _ in ()).throw(ChecksumError("bad crc")),
                stats=stats,
                describe="block 7",
            )
        assert "block 7" in str(err.value) and "2 attempt" in str(err.value)
        assert isinstance(err.value.last_error, ChecksumError)
        assert stats.exhausted_reads == 1 and stats.checksum_failures == 2

    def test_non_retryable_errors_propagate(self):
        with pytest.raises(InjectedCrash):
            RetryPolicy(max_attempts=5).run(
                lambda a: (_ for _ in ()).throw(InjectedCrash("kill -9"))
            )

    def test_backoff_schedule_without_jitter(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=4, backoff_s=0.1, backoff_factor=2.0,
            jitter=False, sleep=slept.append,
        )
        with pytest.raises(ReadExhaustedError):
            policy.run(lambda a: (_ for _ in ()).throw(TransientReadError("x")))
        assert slept == pytest.approx([0.1, 0.2, 0.4])

    def test_backoff_cap_bounds_the_envelope(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=6, backoff_s=1.0, backoff_factor=10.0,
            max_backoff_s=2.5, jitter=False, sleep=slept.append,
        )
        with pytest.raises(ReadExhaustedError):
            policy.run(lambda a: (_ for _ in ()).throw(TransientReadError("x")))
        # 1.0 -> 10.0 (capped 2.5) -> capped 2.5 thereafter.
        assert slept == pytest.approx([1.0, 2.5, 2.5, 2.5, 2.5])

    def _jitter_delays(self, seed: int) -> list[float]:
        slept: list[float] = []
        policy = RetryPolicy(
            max_attempts=5, backoff_s=0.1, backoff_factor=2.0,
            max_backoff_s=0.3, seed=seed, sleep=slept.append,
        )
        with pytest.raises(ReadExhaustedError):
            policy.run(lambda a: (_ for _ in ()).throw(TransientReadError("x")))
        return slept

    def test_full_jitter_is_bounded_deterministic_and_desynchronised(self):
        delays = self._jitter_delays(seed=0)
        # Full jitter: each sleep lands in [0, min(envelope, cap)].
        for delay, envelope in zip(delays, [0.1, 0.2, 0.3, 0.3]):
            assert 0.0 <= delay <= envelope
        # Same seed -> bit-identical schedule (chaos runs stay reproducible).
        assert self._jitter_delays(seed=0) == delays
        # Different seeds (e.g. per-session) -> different schedules, so
        # concurrent sessions don't retry in lockstep.
        assert self._jitter_delays(seed=1) != delays

    def test_zero_backoff_never_sleeps_or_draws(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, sleep=slept.append)
        with pytest.raises(ReadExhaustedError):
            policy.run(lambda a: (_ for _ in ()).throw(TransientReadError("x")))
        assert slept == []
        assert policy._rng is None  # the instant path never touches the RNG


# ----------------------------------------------------------------------
class TestFaultyStores:
    def test_corrupt_bytes_always_differs_and_is_deterministic(self):
        payload = bytes(range(256))
        assert corrupt_bytes(payload) != payload
        assert corrupt_bytes(payload, salt=1) == corrupt_bytes(payload, salt=1)
        assert corrupt_bytes(payload, salt=1) != corrupt_bytes(payload, salt=2)
        assert corrupt_bytes(b"") == b""

    def test_read_level_crash_punches_through_retry(self, block_file):
        path, _ = block_file
        stats = StorageMetrics("crash")
        plan = FaultPlan(specs=[FaultSpec("crash", unit="block", target=0)])
        with FaultyBlockFileReader(path, plan, storage_stats=stats) as faulty:
            with pytest.raises(InjectedCrash):
                faulty.read_block_batch(0)
        assert stats.crashes_injected == 1

    def test_torn_block_read_is_caught_and_retried(self, block_file):
        path, _ = block_file
        stats = StorageMetrics("torn")
        plan = FaultPlan(specs=[FaultSpec("torn", target=2, times=1)])
        with BlockFileReader(path) as clean, FaultyBlockFileReader(
            path, plan, storage_stats=stats
        ) as faulty:
            want = clean.read_block_batch(2).ids.tolist()
            got = faulty.read_block_batch(2).ids.tolist()
        assert got == want
        assert stats.checksum_failures == 1 and stats.retries == 1

    def test_exhausted_block_read_raises(self, block_file):
        path, _ = block_file
        plan = FaultPlan(specs=[FaultSpec("transient", target=0, times=10)])
        with FaultyBlockFileReader(
            path, plan, retry=RetryPolicy(max_attempts=3)
        ) as reader:
            with pytest.raises(ReadExhaustedError):
                reader.read_block_batch(0)
            assert reader.blocks_read == 0  # only successful reads are charged

    def test_latency_injection_recorded(self, block_file):
        path, _ = block_file
        stats = StorageMetrics("lat")
        plan = FaultPlan(specs=[FaultSpec("latency", target=1, delay_s=0.001)])
        with FaultyBlockFileReader(path, plan, storage_stats=stats) as reader:
            reader.read_block_batch(1)
        assert stats.latency_events == 1
        assert stats.latency_injected_s == pytest.approx(0.001)

    def test_faulty_heap_is_a_view_not_a_copy(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        faulty = FaultyHeapFile(heap, FaultPlan())
        assert faulty.pages is heap.pages
        assert faulty.n_tuples == heap.n_tuples

    def test_torn_page_read_fails_checksum_then_recovers(self, dense_binary):
        heap = HeapFile.from_dataset(dense_binary, page_bytes=1024)
        stats = StorageMetrics("heap")
        plan = FaultPlan(specs=[FaultSpec("torn", unit="page", target=0, times=1)])
        faulty = FaultyHeapFile(heap, plan, storage_stats=stats)
        with pytest.raises(ChecksumError):
            faulty.read_page_batch(0)
        # Same read retried (attempt 2) comes back clean and verified.
        batch = faulty.read_page_batch(0, attempt=2)
        assert batch.ids.tolist() == heap.read_page_batch(0).ids.tolist()
        assert stats.checksum_failures == 0  # raw heap path: stats live in the pool

    def test_faulty_table_swaps_storage_but_not_data(self, dense_binary):
        from repro.db import Catalog

        table = Catalog(page_bytes=1024).create_table("t", dense_binary)
        swapped, stats = faulty_table(
            table, FaultPlan(specs=[FaultSpec("transient", unit="page", target=0)])
        )
        assert swapped.name == table.name and swapped.dataset is table.dataset
        assert isinstance(swapped.heap, FaultyHeapFile)
        want = table.pool.get_batch(0).ids.tolist()
        got = swapped.pool.get_batch(0).ids.tolist()
        assert got == want  # transient fault absorbed by the pool's retry
        assert stats.transient_errors == 1 and stats.retries == 1

    def test_chaos_report_shape(self):
        stats = StorageMetrics("s")
        stats.record_attempt()
        stats.record_ok()
        row = chaos_report(stats, FaultPlan(seed=3))
        assert row["store"] == "s" and row["attempts"] == 1 and "plan" in row


# ----------------------------------------------------------------------
def _train_through(path, reader_factory=None, seed=0, epochs=2):
    model = LogisticRegression(8)
    with CorgiPileDataset(
        path, buffer_blocks=2, seed=seed, reader_factory=reader_factory
    ) as view:

        def loader_factory(epoch):
            view.set_epoch(epoch)
            return DataLoader(view, batch_size=32)

        train_streaming(model, loader_factory, epochs=epochs, per_tuple=True, fused=True)
    return model


class TestFaultInvisibility:
    """Transient-only plans must not change training at all (satellite a)."""

    @pytest.mark.parametrize("seed", [CHAOS_SEED * 3 + k for k in range(3)])
    def test_heavy_transient_plan_bit_identical_with_nonzero_retries(
        self, block_file, seed
    ):
        path, _ = block_file
        clean = _train_through(path, seed=seed)
        stats = StorageMetrics("chaos")
        plan = FaultPlan.random(seed, p_transient=0.6, p_torn=0.3, max_failures=2)
        faulty = _train_through(
            path, reader_factory=faulty_reader_factory(plan, stats=stats), seed=seed
        )
        assert stats.retries > 0 and stats.faults_injected > 0
        for key in clean.params:
            assert np.array_equal(clean.params[key], faulty.params[key])

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        p_transient=st.floats(0.0, 0.5),
        p_torn=st.floats(0.0, 0.4),
        max_failures=st.integers(1, 3),
    )
    def test_any_transient_only_plan_is_invisible(
        self, block_file, seed, p_transient, p_torn, max_failures
    ):
        path, _ = block_file
        plan = FaultPlan.random(
            CHAOS_SEED + seed,
            p_transient=p_transient,
            p_torn=p_torn,
            max_failures=max_failures,
        )
        assert plan.transient_only
        clean = _train_through(path, seed=seed, epochs=1)
        faulty = _train_through(
            path, reader_factory=faulty_reader_factory(plan), seed=seed, epochs=1
        )
        for key in clean.params:
            assert np.array_equal(clean.params[key], faulty.params[key])


class TestWarmPoolFaultLedger:
    """Decoded batches that outlive a TRAIN change no read the fault plane
    sees: two TRAINs back to back on a faulty table keep the ledger of an
    engine whose every statement clears its pool."""

    SQL = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 2KB, seed = 1"

    def _run(self):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", make_binary_dense(600, 12, separation=1.2, seed=11))
        plan = FaultPlan.random(CHAOS_SEED + 5, p_transient=0.3, p_torn=0.3, max_failures=2)
        stats = db.inject_faults("t", plan)
        models = [db.execute(self.SQL).model for _ in range(2)]
        return stats.as_dict(), models, db.catalog.get("t").heap.decode_count

    def test_ledger_equals_a_clearing_engine(self, monkeypatch):
        warm, warm_models, warm_decoded = self._run()
        monkeypatch.setattr(BufferPool, "cold_start", BufferPool.clear)
        cold, cold_models, cold_decoded = self._run()
        assert warm["retries"] > 0 and warm["checksum_failures"] > 0
        assert warm == cold
        assert warm_decoded < cold_decoded
        for warm_model, cold_model in zip(warm_models, cold_models):
            for key in warm_model.params:
                np.testing.assert_array_equal(warm_model.params[key], cold_model.params[key])
