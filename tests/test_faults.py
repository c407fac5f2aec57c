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
from repro.data import make_binary_dense, make_binary_sparse
from repro.db import MiniDB, StorageError
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
from repro.db.spec import TrainSpec
from repro.ml import CheckpointConfig, ExponentialDecay, LogisticRegression, load_checkpoint
from repro.ml.trainer import apply_unit
from repro.obs import StorageMetrics
from repro.storage import (
    BlockFileReader,
    BufferPool,
    ChecksumError,
    HeapFile,
    LazyTupleBatch,
    ReadExhaustedError,
    RetryPolicy,
    TransientReadError,
    TupleBatch,
    write_block_file,
)

from .conftest import per_page_run

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
        """A crash spec fires on one read call of its unit: the read of the
        same unit by the run resumed under the same plan survives."""
        plan = FaultPlan(specs=[FaultSpec("crash", unit="page", target=3)])
        assert plan.decide("page", 3, 1).crash
        assert not plan.decide("page", 3, 1).crash

    def test_transient_only_classification(self):
        assert FaultPlan(p_transient=0.5, p_torn=0.5, p_latency=0.5).transient_only
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

        json.dumps(FaultPlan(seed=1, p_transient=0.1, specs=[FaultSpec("crash")]).describe())


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
    """Per-tuple SGD in the plain loader loop over ``reader_factory``'s reads."""
    model, schedule = LogisticRegression(8), ExponentialDecay(0.01)
    with CorgiPileDataset(
        path, buffer_blocks=2, seed=seed, reader_factory=reader_factory
    ) as view:
        for epoch in range(epochs):
            view.set_epoch(epoch)
            for batch in DataLoader(view, batch_size=32):
                apply_unit(model, None, batch.features_matrix(), batch.labels, schedule(epoch))
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


class TestHeapTrainCrashResume:
    """What ``repro chaos --crash-page`` runs: a heap TRAIN with a
    ``checkpoint`` dies on a crashed read of one page, and the statement run
    again over the same checkpoint on clean storage resumes it and ends on
    the bits of the TRAIN that never died."""

    @staticmethod
    def _db(layout):
        db = MiniDB(page_bytes=1024, pool_pages=8)
        db.create_table("t", make_binary_dense(600, 12, separation=1.2, seed=11), layout=layout)
        return db

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    @pytest.mark.parametrize("strategy", ["corgipile", "sliding_window"])
    def test_page_crash_then_resume_equals_the_uninterrupted_train(
        self, tmp_path, strategy, layout
    ):
        spec = TrainSpec(
            table="t", model="lr", strategy=strategy, epochs=2, lr=0.05,
            seed=CHAOS_SEED + 1, block_size=2048,
        )
        clean = self._db(layout).train(spec).model.parameter_vector()
        db = self._db(layout)
        page = db.catalog.get("t").heap.n_pages // 2
        # The pool holds 8 pages, so every page is read again each epoch:
        # the second read of ``page`` is in epoch 1.
        crash = FaultSpec("crash", unit="page", target=page, from_read=2)
        stats = db.inject_faults("t", FaultPlan(specs=[crash]))
        checkpoint = CheckpointConfig(tmp_path / "t.ckpt.npz", every_tuples=1)
        with pytest.raises(InjectedCrash, match=f"page {page} read"):
            db.train(spec, checkpoint=checkpoint)
        assert stats.crashes_injected == 1
        state = load_checkpoint(checkpoint.path)
        assert state.epoch == 1  # died in epoch 1, from a resumable checkpoint

        resumed = self._db(layout).train(spec, checkpoint=checkpoint).model
        np.testing.assert_array_equal(resumed.parameter_vector(), clean)


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


class TestKeptRunFaultLedger:
    """A warm block served as one kept run changes no read the fault plane
    sees: two TRAINs on a faulty row heap and on a faulty dense columnar
    heap keep the ledger and the weights of an engine that reads every block
    page by page and concats."""

    SQL = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 2KB, seed = 1"

    @staticmethod
    def _db(layout="row"):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", make_binary_dense(600, 12, separation=1.2, seed=11), layout=layout)
        return db

    def _run(self, layout):
        db = self._db(layout)
        plan = FaultPlan.random(CHAOS_SEED + 5, p_transient=0.3, p_torn=0.3, max_failures=2)
        stats = db.inject_faults("t", plan)
        models = [db.execute(self.SQL).model for _ in range(2)]
        return stats.as_dict(), models, db.catalog.get("t").pool

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_ledger_equals_per_page_reads(self, layout, monkeypatch):
        kept, kept_models, pool = self._run(layout)
        assert pool._runs  # warm blocks were kept
        monkeypatch.setattr(BufferPool, "get_run", per_page_run)
        ref, ref_models, _ = self._run(layout)
        assert kept["retries"] > 0 and kept["checksum_failures"] > 0
        assert kept == ref
        for model, ref_model in zip(kept_models, ref_models):
            for key in model.params:
                np.testing.assert_array_equal(model.params[key], ref_model.params[key])

    def test_a_torn_page_in_a_kept_run_is_never_served(self):
        heap = HeapFile.from_dataset(make_binary_dense(600, 12, seed=11), page_bytes=1024)
        stats = StorageMetrics("kept-run")
        plan = FaultPlan(specs=[FaultSpec("torn", unit="page", target=2, times=1, from_read=2)])
        faulty = FaultyHeapFile(heap, plan, storage_stats=stats)
        pool = BufferPool(
            faulty, capacity_pages=8, retry=RetryPolicy(max_attempts=2), storage_stats=stats
        )
        block = range(0, 4)
        pool.get_run(block)
        kept, hits = pool.get_run(block)
        assert hits == [True] * 4 and pool._runs
        decoded = faulty.decode_count
        pool.cold_start()
        again, hits = pool.get_run(block)  # page 2's second read call is torn once
        assert hits == [False] * 4 and stats.checksum_failures == 1
        assert again is not kept and not pool._runs
        assert faulty.decode_count == decoded + heap.pages[2].n_tuples  # re-decoded
        np.testing.assert_array_equal(again.dense, kept.dense)  # from the clean retry

    def test_an_exhausted_read_names_the_block(self):
        db = self._db()
        plan = FaultPlan(specs=[FaultSpec("torn", unit="page", target=3, times=99, from_read=2)])
        db.inject_faults("t", plan, retry=RetryPolicy(max_attempts=3))
        db.execute(self.SQL)  # page 3 is read once, cleanly, then kept in block 1's run
        assert 3 in db.catalog.get("t").pool._runs
        with pytest.raises(StorageError) as info:
            db.execute(self.SQL)  # its next read is torn on every attempt
        assert (
            "aborted: block shuffle scan (block 1) of table 't': page 3: "
            "still failing after 3 attempt(s): page 3: checksum mismatch (got "
        ) in str(info.value)


class TestRunDecodeFaultLedger:
    """A block of columnar pages decoded as one run reads what a per-page
    materialise reads: two TRAINs on a faulty sparse columnar table keep the
    ledger and the weights of an engine whose ``concat`` materialises every
    page before stacking."""

    SQL = "SELECT * FROM t TRAIN BY lr WITH max_epoch_num = 2, block_size = 4KB, seed = 1"

    def _run(self):
        db = MiniDB(page_bytes=1024, pool_pages=6)
        data = make_binary_sparse(600, 300, nnz_per_row=8, separation=1.0, seed=11)
        db.create_table("t", data, layout="columnar")
        plan = FaultPlan.random(CHAOS_SEED + 5, p_transient=0.3, p_torn=0.3, max_failures=2)
        stats = db.inject_faults("t", plan)
        models = [db.execute(self.SQL).model for _ in range(2)]
        return stats.as_dict(), models

    def test_ledger_equals_per_page_materialize(self, monkeypatch):
        run, run_models = self._run()
        stack = TupleBatch.concat.__func__

        def per_page(cls, batches):
            pages = [b.materialize() if isinstance(b, LazyTupleBatch) else b for b in batches]
            return stack(cls, pages)

        monkeypatch.setattr(TupleBatch, "concat", classmethod(per_page))
        ref, ref_models = self._run()
        assert run["retries"] > 0 and run["checksum_failures"] > 0
        assert run == ref
        for model, ref_model in zip(run_models, ref_models):
            for key in model.params:
                np.testing.assert_array_equal(model.params[key], ref_model.params[key])
