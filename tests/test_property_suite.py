"""Cross-cutting property-based tests (hypothesis) on system invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CorgiPileShuffle, pipelined_time, serial_time
from repro.data import BlockLayout, Dataset, make_binary_dense
from repro.db import Catalog, MiniDB
from repro.db.engine import ENGINE_PROFILE
from repro.db.operators import (
    BlockShuffleOperator,
    MultiplexedReservoirOperator,
    PermutedScanOperator,
    SeqScanOperator,
    SlidingWindowOperator,
    TupleShuffleOperator,
)
from repro.db.timing import RuntimeContext
from repro.shuffle import MRSShuffle, make_strategy
from repro.storage import SSD, AccessTrace, HeapFile
from repro.theory import label_mixing_deviation

from .conftest import pass_ids


@settings(max_examples=20, deadline=None)
@given(
    fills=st.lists(st.floats(0, 10), min_size=1, max_size=8),
    consumes=st.lists(st.floats(0, 10), min_size=1, max_size=8),
)
def test_property_double_buffering_always_helps(fills, consumes):
    n = min(len(fills), len(consumes))
    fills, consumes = fills[:n], consumes[:n]
    piped = pipelined_time(fills, consumes)
    serial = serial_time(fills, consumes)
    assert piped <= serial + 1e-9
    # And never faster than either resource alone.
    assert piped >= max(sum(fills), sum(consumes)) - 1e-9


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(20, 200),
    buffer_frac=st.floats(0.05, 0.5),
    seed=st.integers(0, 50),
)
def test_property_mrs_emissions_match_scan_count(n, buffer_frac, seed):
    strategy = MRSShuffle(n, max(1, int(buffer_frac * n)), seed=seed)
    order = strategy.epoch_indices(0)
    assert order.size == n
    assert set(order.tolist()) <= set(range(n))


@settings(max_examples=10, deadline=None)
@given(
    per_block=st.integers(5, 40),
    buffer_blocks=st.integers(2, 12),
    seed=st.integers(0, 20),
)
def test_property_corgipile_mixing_beats_clustered_order(per_block, buffer_blocks, seed):
    n = 600
    labels = np.array([-1.0] * (n // 2) + [1.0] * (n // 2))
    layout = BlockLayout(n, per_block)
    cp = CorgiPileShuffle(layout, buffer_blocks, seed=seed)
    order = cp.epoch_indices(0)
    dev = label_mixing_deviation(order, labels, window=50)
    clustered_dev = label_mixing_deviation(np.arange(n), labels, window=50)
    assert dev < clustered_dev


@settings(max_examples=10, deadline=None)
@given(kinds=st.lists(st.sampled_from(["seq", "rand", "seq_write"]), min_size=1, max_size=6))
def test_property_trace_time_additive(kinds):
    trace = AccessTrace()
    for i, kind in enumerate(kinds):
        trace.add(kind, i + 1, 1000.0 * (i + 1))
    total = trace.time_on(SSD)
    per_event = sum(e.time_on(SSD) for e in trace)
    assert total == pytest.approx(per_event)


OPERATOR_BUILDERS = {
    "seq": lambda t, ctx: SeqScanOperator(t, ctx),
    "block": lambda t, ctx: BlockShuffleOperator(t, ctx, 2048, seed=3),
    "tuple": lambda t, ctx: TupleShuffleOperator(
        BlockShuffleOperator(t, ctx, 2048, seed=3), ctx, 50, seed=3
    ),
    "permuted": lambda t, ctx: PermutedScanOperator(t, ctx, seed=3, charge="sort"),
    "window": lambda t, ctx: SlidingWindowOperator(SeqScanOperator(t, ctx), 40, seed=3),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_BUILDERS))
def test_property_operators_cover_table_across_rescans(name):
    ds = make_binary_dense(300, 6, seed=0)
    table = Catalog(page_bytes=512).create_table("t", ds)
    ctx = RuntimeContext(device=SSD, compute=ENGINE_PROFILE)
    op = OPERATOR_BUILDERS[name](table, ctx)
    op.open()
    for _ in range(3):
        ids = sorted(pass_ids(op))
        assert ids == list(range(300)), name
        op.rescan()


def test_property_mrs_operator_valid_ids_across_rescans():
    ds = make_binary_dense(300, 6, seed=0)
    table = Catalog(page_bytes=512).create_table("t", ds)
    ctx = RuntimeContext(device=SSD, compute=ENGINE_PROFILE)
    op = MultiplexedReservoirOperator(SeqScanOperator(table, ctx), 40, seed=3)
    op.open()
    for _ in range(2):
        ids = pass_ids(op)
        assert len(ids) == 300
        assert set(ids) <= set(range(300))
        op.rescan()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 30), page_bytes=st.sampled_from([256, 512, 2048]))
def test_property_heapfile_roundtrip_any_page_size(seed, page_bytes):
    ds = make_binary_dense(60, 5, seed=seed)
    heap = HeapFile.from_dataset(ds, page_bytes=page_bytes)
    for i in (0, 30, 59):
        record = heap.read_tuple(i)
        np.testing.assert_allclose(record.features, ds.X[i])
        assert record.label == ds.y[i]


@settings(max_examples=6, deadline=None)
@given(strategy=st.sampled_from(["corgipile", "no_shuffle", "shuffle_once", "block_only"]))
def test_property_engine_history_deterministic_per_strategy(strategy):
    ds = make_binary_dense(400, 6, separation=1.5, seed=0)

    def run():
        db = MiniDB(page_bytes=512)
        db.create_table("t", ds)
        return db.execute(
            f"SELECT * FROM t TRAIN BY lr WITH strategy = {strategy}, "
            "max_epoch_num = 2, block_size = 2KB, seed = 5"
        )

    a, b = run(), run()
    assert [r.train_loss for r in a.history.records] == [
        r.train_loss for r in b.history.records
    ]
