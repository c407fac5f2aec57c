"""One counter store: ``LoaderMetrics`` / ``StorageMetrics`` are scopes of
``obs.Registry`` and every event is recorded once.

A scope keeps a private count for its caller to assert on and forwards the
events the session registry names (``storage.retry.*``,
``storage.bufferpool.invalidations``, ``shuffle.buffer.*``) as they happen,
so the two accounts of one run must agree — in process, across the spawn
boundary, and in the ``--metrics-out`` snapshot the CLI writes.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.core import CorgiPileDataset
from repro.data.generators import make_binary_dense
from repro.faults import FaultPlan, faulty_reader_factory
from repro.obs import LoaderMetrics, StorageMetrics
from repro.storage import write_block_file

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(autouse=True)
def _clean_session_obs():
    """Every test starts and ends with pristine session telemetry."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


@pytest.fixture()
def block_file(tmp_path):
    ds = make_binary_dense(320, 8, seed=0)
    path = tmp_path / "train.blk"
    write_block_file(ds, path, tuples_per_block=20)
    return path


def test_retries_counted_once_in_scope_and_session(block_file):
    plan = FaultPlan.random(3, p_transient=0.5, p_torn=0.3, max_failures=2)
    stats, loader = StorageMetrics("faults"), LoaderMetrics("fills")
    with CorgiPileDataset(
        block_file, buffer_blocks=2, seed=1, stats=loader,
        reader_factory=faulty_reader_factory(plan, stats=stats),
    ) as view:
        n = sum(len(fill) for fill in view.fills())
    assert n == 320 and stats.retries > 0 and stats.exhausted_reads == 0
    session = obs.get_registry()
    assert session.counter("storage.retry.retries") == stats.retries
    assert (
        session.counter("storage.retry.TransientReadError")
        + session.counter("storage.retry.ChecksumError")
        == stats.transient_errors + stats.checksum_failures
    )
    assert session.counter("shuffle.buffer.drains") == loader.buffers_drained == 8
    assert session.counter("shuffle.buffer.tuples_drained") == loader.tuples_buffered


def test_site_without_a_scope_records_into_the_session(block_file):
    plan = FaultPlan.random(3, p_transient=0.5, p_torn=0.3, max_failures=2)
    with CorgiPileDataset(
        block_file, buffer_blocks=2, seed=1, reader_factory=faulty_reader_factory(plan)
    ) as view:
        list(view.fills())
    session = obs.get_registry()
    assert session.counter("storage.retry.retries") > 0
    assert session.counter("shuffle.buffer.drains") == 8


def test_merging_scopes_forwards_nothing():
    worker = StorageMetrics("w")
    worker.record_retry()
    worker.record_cache_invalidation()
    before = obs.get_registry().snapshot()["counters"]
    assert before["storage.retry.retries"] == 1
    total = StorageMetrics("all").merge(worker)
    total += worker
    assert (total + worker).retries == 3
    assert obs.get_registry().snapshot()["counters"] == before
    # Exporting a scope is the registry's own merge under a prefix.
    into = obs.Registry("out")
    total.to_registry(into, prefix="chaos")
    assert into.counter("chaos.retries") == 2 and into.counter("chaos.exhausted_reads") == 0
    assert "chaos.exhausted_reads" in into.snapshot()["counters"]


def test_one_drain_count_across_the_spawn_boundary(block_file):
    """A worker's scope forwards into the worker's session registry, which
    ships home once: the coordinator's two accounts of the run agree."""
    from repro.ml.models import LogisticRegression
    from repro.ml.schedules import ExponentialDecay
    from repro.parallel import ParallelTrainer

    with obs.trace_to() as (_, registry):
        result = ParallelTrainer(
            block_file, LogisticRegression(8, seed=1), n_workers=2, mode="sync",
            epochs=2, global_batch_size=32, seed=5, schedule=ExponentialDecay(0.05),
        ).run()
    assert result.loader_stats.buffers_drained > 0
    assert registry.counter("shuffle.buffer.drains") == result.loader_stats.buffers_drained
    assert registry.counter("storage.retry.retries") == result.storage_stats.retries == 0


def test_chaos_metrics_out_matches_the_printed_row(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["chaos", "--quick", "--metrics-out", str(out)]) == 0
    printed = capsys.readouterr().out
    header, row = (
        [cell.strip() for cell in line.split("|")]
        for line in printed.splitlines()
        if " | " in line
    )
    row = dict(zip(header, row))
    counters = json.loads(out.read_text())["counters"]
    assert counters["chaos.retries"] == int(row["retries"]) > 0
    assert counters["chaos.read_attempts"] == int(row["attempts"])
    assert counters["storage.retry.retries"] == counters["chaos.retries"]


def test_one_store_and_one_recording_call_per_site():
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    deleted = re.compile(r"MergeableStats|merge_stats")
    assert [name for name, code in sources.items() if deleted.search(code)] == []
    for name in (
        "storage/retry.py", "storage/blockfile.py", "storage/bufferpool.py",
        "core/dataset.py", "faults/store.py",
    ):
        code = sources[name]
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = ast.get_source_segment(code, node)
                assert not ("obs.inc(" in body and ".record_" in body), (
                    f"{name}:{node.name} records one event into two stores"
                )
