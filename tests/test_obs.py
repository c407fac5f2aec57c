"""Tests for the unified observability subsystem (``repro.obs``).

Covers the PR's acceptance criteria directly:

* registry merge is associative, including across a real spawn boundary
  (4-worker parallel run → one merged registry + one merged trace);
* spans nest correctly and survive exceptions;
* tracing disabled costs < 5 % on a fused GLM epoch (timed with the
  perf-harness ``time_best``);
* the JSONL trace / JSON metrics exporters round-trip and validate against
  the checked-in schema;
* the counter-vs-span overlap cross-check holds (and the phantom-stall
  accounting bug it caught stays fixed).
"""

from __future__ import annotations

import json
import pickle
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.lifecycle import ProducerChannel
from repro.bench.timing import time_best
from repro.db import overlap_crosscheck, overlap_report
from repro.ml.kernels import glm_epoch_dense
from repro.ml.losses import LogisticLoss
from repro.obs import LoaderMetrics, Registry, Tracer
from repro.obs.registry import RESERVOIR_MAX


@pytest.fixture(autouse=True)
def _clean_session_obs():
    """Every test starts and ends with pristine session telemetry."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def _strip_name(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot.items() if k != "name"}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = Registry("t")
        reg.inc("a")
        reg.inc("a", 2)
        reg.set_gauge("g", 3.0)
        reg.set_max("m", 1.0)
        reg.set_max("m", 0.5)  # not a new high-water mark
        for v in (1.0, 2.0, 3.0):
            reg.observe("h", v)
        assert reg.counter("a") == 3
        assert reg.gauge("g") == 3.0
        assert reg.gauge("m") == 1.0
        h = reg.histogram("h")
        assert h["count"] == 3 and h["sum"] == 6.0
        assert h["min"] == 1.0 and h["max"] == 3.0 and h["mean"] == 2.0
        assert reg.histogram("missing") is None
        assert reg.counter("missing") == 0

    @staticmethod
    def _make(seed: int) -> Registry:
        rng = np.random.default_rng(seed)
        reg = Registry("r")
        reg.inc("blocks", int(rng.integers(1, 100)))
        reg.inc(f"only.{seed}", 1)
        reg.set_max("depth", float(rng.integers(1, 50)))
        for v in rng.random(300):  # 3 × 300 > RESERVOIR_MAX: truncation hit
            reg.observe("wait_s", float(v))
        return reg

    def test_merge_is_associative(self):
        a, b, c = (self._make(s) for s in range(3))
        left = Registry("r").merge(self._make(0)).merge(self._make(1)).merge(self._make(2))
        inner = Registry("r").merge(self._make(1)).merge(self._make(2))
        right = Registry("r").merge(self._make(0)).merge(inner)
        assert _strip_name(left.snapshot()) == _strip_name(right.snapshot())
        # Operator form agrees with the in-place fold.
        total = a + b + c
        assert _strip_name(total.snapshot()) == _strip_name(left.snapshot())
        # Sources untouched by the fold.
        assert a.counter("blocks") == self._make(0).counter("blocks")
        # The reservoir stays bounded.
        assert len(total._hists["wait_s"]["reservoir"]) == RESERVOIR_MAX

    def test_merge_type_errors(self):
        with pytest.raises(TypeError):
            Registry("r").merge(LoaderMetrics("x"))
        with pytest.raises(TypeError):
            obs.merge(Registry("r"), Tracer())

    def test_pickle_roundtrip(self):
        reg = self._make(7)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.snapshot() == reg.snapshot()
        clone.inc("blocks")  # fresh lock: still usable
        assert clone.counter("blocks") == reg.counter("blocks") + 1

    def test_from_snapshot_restores_moments(self):
        reg = self._make(3)
        rebuilt = Registry.from_snapshot(reg.snapshot())
        assert rebuilt.counter("blocks") == reg.counter("blocks")
        assert rebuilt.gauge("depth") == reg.gauge("depth")
        h0, h1 = reg.histogram("wait_s"), rebuilt.histogram("wait_s")
        for key in ("count", "sum", "min", "max", "mean"):
            assert h1[key] == h0[key]
        assert "p50" not in h1  # reservoir is not part of the snapshot


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", epoch=1) as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id() == inner.span_id
            assert tracer.current_span_id() == outer.span_id
        assert tracer.current_span_id() is None
        inner_span, outer_span = tracer.spans  # inner finishes first
        assert inner_span.parent_id == outer_span.span_id
        assert outer_span.parent_id is None
        assert outer_span.attrs == {"epoch": 1}
        assert inner_span.duration_s <= outer_span.duration_s

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("epoch", epoch=0):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.attrs["error"] == "ValueError"
        # The stack unwound: a new span is again a root.
        assert tracer.current_span_id() is None
        with tracer.span("next"):
            pass
        assert tracer.spans[-1].parent_id is None

    def test_disabled_span_is_shared_singleton(self):
        assert not obs.enabled()
        s1 = obs.span("anything", k=1)
        s2 = obs.span("else")
        assert s1 is s2 is obs.NULL_SPAN
        with s1 as s:
            s.set(ignored=True)  # attribute writes vanish silently
        assert obs.get_tracer().spans == []
        assert obs.add_span("x", 0.0, 1.0) is None

    def test_threads_get_independent_stacks(self):
        tracer = Tracer(enabled=True)
        seen = {}

        def worker():
            with tracer.span("thread_root"):
                seen["tid_parent"] = tracer.spans  # not yet finished
                seen["current"] = tracer.current_span_id()

        with tracer.span("main_root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        by_name = {s.name: s for s in tracer.spans}
        # The thread's root span must not be parented under main_root.
        assert by_name["thread_root"].parent_id is None
        assert by_name["main_root"].parent_id is None

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=3)
        for i in range(5):
            with tracer.span("s", i=i):
                pass
        assert len(tracer.spans) == 3
        assert tracer.dropped == 2

    def test_tracer_merge_remaps_ids_and_stamps_worker(self):
        home = Tracer(enabled=True)
        with home.span("coordinator"):
            pass
        away = Tracer(enabled=True)
        with away.span("worker_epoch"):
            with away.span("worker_fill"):
                pass
        home.merge(away, worker=3)
        by_name = {s.name: s for s in home.spans}
        fill, epoch = by_name["worker_fill"], by_name["worker_epoch"]
        assert fill.attrs["worker"] == 3 and epoch.attrs["worker"] == 3
        assert fill.parent_id == epoch.span_id  # parent link survived remap
        ids = [s.span_id for s in home.spans]
        assert len(ids) == len(set(ids))  # no collisions with local spans

    def test_shared_anchor_merges_same_process_spans_without_skew(self):
        # Regression for the trace-skew bug: every tracer used to estimate
        # its own wall anchor, so merging two same-process tracers shifted
        # spans by the difference of two noisy (or NTP-stepped) estimates.
        # A session tracer constructed with the coordinator's anchor must
        # merge with an exact-zero shift.
        coordinator = Tracer(enabled=True)
        session = Tracer(enabled=True, base_wall=coordinator.base_wall)
        assert session.base_wall == coordinator.base_wall
        session.add_span("session_stmt", 10.0, 11.0)
        coordinator.add_span("coord_ref", 10.0, 11.0)
        coordinator.merge(session, worker="s1")
        starts = {s.name: (s.start, s.end) for s in coordinator.spans}
        # Identical monotonic timestamps stay identical after the merge.
        assert starts["session_stmt"] == starts["coord_ref"] == (10.0, 11.0)

    def test_foreign_anchor_still_rebases_cross_process_spans(self):
        # A tracer from another process (different perf_counter epoch) keeps
        # its own anchor, and merge shifts by exactly the anchor difference.
        home = Tracer(enabled=True)
        away = Tracer(enabled=True, base_wall=home.base_wall + 5.0)
        away.add_span("worker_span", 2.0, 3.0)
        home.merge(away, worker=0)
        (span,) = home.by_name("worker_span")
        assert span.start == pytest.approx(7.0)
        assert span.end == pytest.approx(8.0)
        # Wall-clock placement is unchanged by the rebase.
        assert home.base_wall + span.start == pytest.approx(
            away.base_wall + 2.0
        )


# ----------------------------------------------------------------------
# Disabled-mode overhead (< 5 % on a fused GLM epoch)
# ----------------------------------------------------------------------


class TestDisabledOverhead:
    def test_disabled_tracing_under_five_percent_on_fused_epoch(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4000, 16))
        y = rng.choice([-1.0, 1.0], size=4000)
        order = rng.permutation(4000)
        loss = LogisticLoss()
        batches = np.array_split(order, 64)

        def plain_epoch():
            w = np.zeros(16)
            b = 0.0
            for batch in batches:
                b = glm_epoch_dense(w, b, loss, X, y, batch, 0.05, 1e-4, True)
            return w, b

        def instrumented_epoch():
            # Same work, instrumented at the trainer's density (one span +
            # two counter bumps per fused step) with tracing disabled.
            w = np.zeros(16)
            b = 0.0
            with obs.span("ml.epoch", epoch=0):
                for batch in batches:
                    with obs.span("ml.fused_step") as sp:
                        b = glm_epoch_dense(w, b, loss, X, y, batch, 0.05, 1e-4, True)
                        sp.set(n_tuples=len(batch))
                    obs.inc("ml.fused_steps")
                    obs.inc("ml.fused_tuples", len(batch))
            return w, b

        assert not obs.enabled()
        assert np.allclose(plain_epoch()[0], instrumented_epoch()[0])
        # Best-of-N absorbs scheduler noise; allow a few attempts before
        # declaring the overhead real rather than a noisy minimum.
        for attempt in range(3):
            base = time_best(plain_epoch, repeats=5)
            instrumented = time_best(instrumented_epoch, repeats=5)
            if instrumented <= 1.05 * base:
                break
        assert instrumented <= 1.05 * base, (
            f"disabled-mode overhead {instrumented / base - 1:.1%} exceeds 5% "
            f"({instrumented:.6f}s vs {base:.6f}s)"
        )


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExportRoundTrip:
    def _record_session(self):
        with obs.span("epoch", epoch=0):
            with obs.span("fill", n_tuples=32):
                pass
            with obs.span("drain"):
                pass
        obs.inc("blocks", 5)
        obs.set_gauge("depth", 2.0)
        obs.observe("wait_s", 0.25)

    def test_trace_jsonl_roundtrip_and_schema(self, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        metrics = tmp_path / "run.metrics.json"
        with obs.trace_to(trace, metrics_path=metrics) as (tracer, registry):
            self._record_session()
        assert not obs.enabled()  # trace_to restores the disabled state

        meta, events = obs.read_trace_jsonl(trace)
        assert meta["version"] == 1 and meta["span_count"] == 3
        assert obs.validate_events(meta, events, obs.load_schema()) == []

        span_events = [e for e in events if e["type"] == "span"]
        assert [e["name"] for e in span_events] == ["fill", "drain", "epoch"]
        by_name = {e["name"]: e for e in span_events}
        assert by_name["fill"]["parent"] == by_name["epoch"]["id"]
        assert by_name["fill"]["attrs"] == {"n_tuples": 32}
        assert all(e["duration_s"] >= 0 for e in span_events)

        # The embedded metrics event and the standalone metrics file agree,
        # and both rebuild into a live registry.
        (metrics_event,) = [e for e in events if e["type"] == "metrics"]
        on_disk = json.loads(metrics.read_text())
        assert on_disk["counters"] == metrics_event["counters"] == {"blocks": 5}
        rebuilt = Registry.from_snapshot(on_disk)
        assert rebuilt.counter("blocks") == 5
        assert rebuilt.gauge("depth") == 2.0
        assert rebuilt.histogram("wait_s")["count"] == 1

    def test_render_report_from_tracer_and_file(self, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        with obs.trace_to(trace) as (tracer, registry):
            self._record_session()
        for source in (tracer, trace):
            text = obs.report(source, registry=obs.get_registry())
            assert "spans: 3" in text
            assert "fill" in text and "epoch" in text
            assert "blocks" in text  # counters section
        empty = obs.report([], registry=None)
        assert "no spans recorded" in empty

    def test_validator_flags_broken_traces(self, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        with obs.trace_to(trace):
            self._record_session()
        meta, events = obs.read_trace_jsonl(trace)
        good = [dict(e) for e in events if e["type"] == "span"]
        # Dangling parent.
        bad = [dict(e) for e in good]
        bad[0]["parent"] = 999
        assert any("does not resolve" in p for p in obs.validate_events(meta, bad))
        # Negative interval.
        bad = [dict(e) for e in good]
        bad[0]["end_s"] = bad[0]["start_s"] - 1.0
        assert any("negative duration" in p for p in obs.validate_events(meta, bad))
        # Type violation.
        bad = [dict(e) for e in good]
        bad[0]["name"] = 7
        assert any("expected" in p for p in obs.validate_events(meta, bad))


# ----------------------------------------------------------------------
# Overlap cross-check + phantom-stall regression
# ----------------------------------------------------------------------


class TestOverlapCrosscheck:
    def test_nonblocking_puts_record_zero_stall(self):
        """Regression: non-blocking puts must not book phantom stall time.

        ``ProducerChannel.put`` used to route every put through the timed
        slow path, so thousands of puts into a never-full queue accumulated
        microseconds of lock traffic into a bogus ``producer_stall_s`` —
        which is exactly what the counter-vs-span cross-check exposed.
        """
        stats = LoaderMetrics("unit")
        chan = ProducerChannel(depth=10_000, stop=threading.Event(), stats=stats)
        for i in range(2_000):
            assert chan.put(i)
        assert stats.producer_stall_s == 0.0  # exact, not approximate
        assert stats.items_produced == 2_000

    @staticmethod
    def _span(name, duration, loader="unit"):
        return {"name": name, "duration_s": duration, "attrs": {"loader": loader}}

    def test_identity_holds_on_synthetic_run(self):
        stats = LoaderMetrics("unit")
        stats.producer_stall_s = 0.2
        stats.consumer_wait_s = 0.3
        spans = [
            self._span("loader.producer", 1.0),
            self._span("loader.producer_stall", 0.2),
            self._span("loader.consumer_wait", 0.3),
            self._span("loader.producer", 9.9, loader="someone_else"),
        ]
        row = overlap_crosscheck(stats, spans, wall_s=1.0)
        assert row["ok"], row
        assert row["counter_overlap_s"] == pytest.approx(0.5)
        assert row["span_overlap_s"] == pytest.approx(0.5)
        assert row["gap_s"] == pytest.approx(0.0)

    def test_detects_counter_span_disagreement(self):
        stats = LoaderMetrics("unit")
        stats.producer_stall_s = 0.8  # counters claim heavy stalling…
        spans = [
            self._span("loader.producer", 1.0),  # …spans saw none
        ]
        row = overlap_crosscheck(stats, spans, wall_s=1.0)
        assert not row["ok"], row
        assert row["gap_s"] > row["tolerance_s"]

    def test_overlap_report_accepts_metrics_and_dicts(self):
        stats = LoaderMetrics("unit")
        stats.record_put(1, 0.5)
        stats.record_get(0.5)
        for source in (stats, stats.as_dict()):
            row = overlap_report(source)
            assert row["loader"] == "unit"
            assert row["overlap_fraction"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Merge across the spawn boundary: one trace for a 4-worker run
# ----------------------------------------------------------------------


class TestParallelMergedTrace:
    """The PR's headline acceptance test: a 4-worker parallel-train run
    produces a *single* merged trace and registry on the coordinator.

    Workers trace locally (a spawned process starts with a fresh, disabled
    tracer that ``worker_main`` enables when the coordinator was tracing),
    ship their telemetry home with the final stats message, and the
    coordinator folds everything into one attributable timeline.
    """

    N_TUPLES = 320
    N_FEATURES = 8
    N_WORKERS = 4
    EPOCHS = 2

    @pytest.fixture(scope="class")
    def merged_run(self, tmp_path_factory):
        from repro.data.generators import make_binary_dense
        from repro.ml.models import LogisticRegression
        from repro.ml.schedules import ExponentialDecay
        from repro.parallel import ParallelTrainer
        from repro.storage import write_block_file

        ds = make_binary_dense(self.N_TUPLES, self.N_FEATURES, seed=0)
        path = tmp_path_factory.mktemp("obs_parallel") / "train.blk"
        write_block_file(ds, path, tuples_per_block=20)

        obs.reset()
        with obs.trace_to() as (tracer, registry):
            wall_t0 = time.perf_counter()
            result = ParallelTrainer(
                path,
                LogisticRegression(self.N_FEATURES, seed=1),
                n_workers=self.N_WORKERS,
                mode="sync",
                epochs=self.EPOCHS,
                global_batch_size=64,
                seed=5,
                schedule=ExponentialDecay(0.05),
            ).run()
            wall_s = time.perf_counter() - wall_t0
        # Detach from the session singletons: the per-test autouse reset
        # must not wipe this class-scoped capture.
        tracer = pickle.loads(pickle.dumps(tracer))
        registry = pickle.loads(pickle.dumps(registry))
        obs.reset()
        yield tracer, registry, result, wall_s

    def test_one_worker_span_per_worker(self, merged_run):
        tracer, _, _, _ = merged_run
        workers = tracer.by_name("worker")
        assert len(workers) == self.N_WORKERS
        assert {s.attrs["worker"] for s in workers} == set(range(self.N_WORKERS))

    def test_merged_ids_unique_and_parents_resolve(self, merged_run):
        tracer, _, _, _ = merged_run
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))
        id_set = set(ids)
        for s in tracer.spans:
            assert s.parent_id is None or s.parent_id in id_set, s

    def test_worker_time_accounting_vs_coordinator_wall(self, merged_run):
        """Per-worker span totals account for the coordinator wall-clock.

        Each worker's lifetime span sits inside the coordinator's wall
        (plus a spawn/teardown tolerance), and its busy time — lifetime
        minus its own barrier waits — can never exceed that wall.
        """
        tracer, _, _, wall_s = merged_run
        waits_by_worker: dict[int, float] = {}
        for s in tracer.by_name("parallel.barrier_wait"):
            waits_by_worker.setdefault(s.attrs["worker"], 0.0)
            waits_by_worker[s.attrs["worker"]] += s.duration_s
        assert set(waits_by_worker) == set(range(self.N_WORKERS))
        for w in tracer.by_name("worker"):
            wid = w.attrs["worker"]
            assert w.duration_s <= wall_s + 0.5, (wid, w.duration_s, wall_s)
            busy = w.duration_s - waits_by_worker[wid]
            assert 0.0 <= busy <= wall_s + 0.5, (wid, busy, wall_s)
        # Coordinator epochs cover the training portion of the wall.
        epochs = tracer.by_name("parallel.epoch")
        assert len(epochs) == self.EPOCHS
        assert sum(s.attrs["wall_s"] for s in epochs) <= wall_s + 1e-6

    def test_worker_registries_fold_into_one(self, merged_run):
        _, registry, result, _ = merged_run
        assert registry.counter("parallel.epochs") == self.EPOCHS
        # Every worker reads its 4-block shard every epoch (320/20 = 16
        # blocks per epoch across the 4 spawned processes).  The merged
        # counter must carry at least those worker-side reads — a
        # coordinator-only registry would stop well short of that.
        assert registry.counter("storage.blockfile.blocks_read") >= 16 * self.EPOCHS
        hist = registry.histogram("parallel.barrier_wait_s")
        assert hist is not None and hist["count"] > 0
        assert result.epochs_run == self.EPOCHS

    def test_merged_trace_exports_and_validates(self, merged_run, tmp_path):
        tracer, registry, _, _ = merged_run
        trace = tmp_path / "parallel.trace.jsonl"
        obs.write_trace_jsonl(trace, tracer, registry)
        meta, events = obs.read_trace_jsonl(trace)
        assert obs.validate_events(meta, events, obs.load_schema()) == []
        text = obs.report(trace, registry=registry)
        assert "worker" in text and "parallel.epoch" in text
