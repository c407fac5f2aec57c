"""The batch-at-a-time operator core visits tuples exactly as the per-tuple one did.

Three layers of evidence:

* **Goldens** (``tests/goldens/operator_batches.json``) recorded at the last
  per-tuple commit (``4babf86``), by running this very file against that
  checkout (``PYTHONPATH=<parent>/src python tests/test_operator_batches.py
  --regen``): for every strategy × layout × sparsity × WHERE path the table
  supports, the sha256 of the 2-epoch tuple-id stream, the per-fill
  ``(io_s, compute_s)`` lists of the ``RuntimeContext`` and the timeline's
  total.  Ids are integers and the device model is pure arithmetic, so the
  goldens do not depend on the platform.
* **Properties** over drawn geometries: the carry logic (a fill that ends
  inside a block, a unit that ends inside a fill, pages emptied by DELETE,
  a buffer larger than the table, a resume cursor inside a fill) against a
  per-tuple reference kept here, built on the ``next()`` adapter.
* **The round trip cannot come back**: a fused TRAIN with the per-tuple
  explode/collate entry points patched to raise.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.buffer import ShuffleBuffer
from repro.core.dataloader import collate
from repro.core.seeding import TUPLE_SHUFFLE_STREAM, stream_rng
from repro.data import clustered_by_label, make_binary_dense, make_binary_sparse
from repro.db import MiniDB
from repro.db.engine import ENGINE_PROFILE
from repro.db.operators import (
    BlockShuffleOperator,
    FilteredSeqScanOperator,
    MultiplexedReservoirOperator,
    PassThroughAccountingOperator,
    PermutedScanOperator,
    PhysicalOperator,
    RidBlockShuffleOperator,
    SeqScanOperator,
    SGDOperator,
    SlidingWindowOperator,
    TupleShuffleOperator,
)
from repro.db.plan import RID_STRATEGIES, STRATEGIES, WHERE_STRATEGIES
from repro.db.query import parse_predicate
from repro.db.spec import TrainSpec
from repro.db.threaded import ThreadedTupleShuffleOperator
from repro.db.timing import RuntimeContext
from repro.db.where import subset_partition
from repro.ml.optim import SGD
from repro.ml.schedules import ExponentialDecay
from repro.ml.trainer import CheckpointConfig, TrainInterrupted
from repro.storage import SSD
from repro.storage.bufferpool import BufferPool
from repro.storage.codec import TupleBatch
from repro.storage.columnar import LazyTupleBatch

GOLDENS = Path(__file__).parent / "goldens" / "operator_batches.json"
SEED = 7


# ----------------------------------------------------------------------
# The pinned matrix
# ----------------------------------------------------------------------


def _dataset(kind: str):
    """Small seeded tables with one column that ascends with heap position
    (``f0`` dense, ``label`` sparse), so a range on it is one contiguous page
    run and the index path wins."""
    if kind == "dense":
        dataset = make_binary_dense(420, 6, separation=1.2, seed=5)
        dataset.X[:, 0] = np.linspace(0.0, 1.0, dataset.n_tuples)
        return dataset
    return clustered_by_label(
        make_binary_sparse(360, 60, nnz_per_row=6, separation=1.0, seed=9), seed=1
    )


#: where-kind -> (predicate per table kind, index column or None)
WHERE_KINDS = {
    "all": (None, None),
    "where-ix": ({"dense": "f0 >= 0.8", "sparse": "label >= 0.5"}, {"dense": "f0", "sparse": "label"}),
    "where-scan": ({"dense": "f0 >= 0.3", "sparse": "label >= 0.5"}, None),
}

CASES = [
    (strategy, layout, kind, where)
    for strategy in STRATEGIES
    for layout in ("row", "columnar")
    for kind in ("dense", "sparse")
    for where in WHERE_KINDS
    if (where == "all" or strategy in WHERE_STRATEGIES)
    and (layout == "row" or (where == "all" and strategy not in RID_STRATEGIES))
]


def case_id(case) -> str:
    return "-".join(case)


def _engine(case) -> tuple[MiniDB, TrainSpec]:
    strategy, layout, kind, where = case
    dataset = _dataset(kind)
    # An 8-page pool under ~30-page tables: epoch 2 still misses, so the
    # per-fill I/O lists exercise both the device and the memory charge.
    db = MiniDB(page_bytes=1024, pool_pages=8)
    db.create_table("t", dataset, layout=layout)
    predicates, index = WHERE_KINDS[where]
    if index is not None:
        db.execute(f"CREATE INDEX ix ON t ({index[kind]})")
    spec = TrainSpec(
        table="t", model="svm", strategy=strategy, epochs=2, lr=0.05, decay=0.9, seed=SEED, fused=True,
        # 2-page blocks; a buffer that is no multiple of a block's tuples.
        block_size=2048, buffer_fraction=0.13,
        where=parse_predicate(predicates[kind]) if predicates else None,
    )
    return db, spec


def _open_fills(ctx: RuntimeContext) -> list[list[float]]:
    """The epoch's ``[io_s list, compute_s list]`` so far — trailing I/O no
    fill consumed counted as ``epoch_wall_time`` will count it."""
    trailing = [ctx._pending_io_s] if ctx._pending_io_s else []
    return [list(ctx._fill_io) + trailing, list(ctx._fill_compute) + [0.0] * len(trailing)]


def observe(db: MiniDB, spec: TrainSpec, monkeypatch) -> dict:
    """Run one TRAIN, recording what the root operator pulled and what the
    simulated clock was charged.  The recorder hooks the pipeline's top
    operator by instance attribute, so it reads the batch stream here and
    read the tuple stream at the per-tuple parent commit."""
    ids: list[np.ndarray] = []
    fills: list[list[list[float]]] = []
    sgd_init = SGDOperator.__init__

    def init(self, child, *args, **kwargs):
        sgd_init(self, child, *args, **kwargs)
        if hasattr(PhysicalOperator, "next_batch"):
            pull = child.next_batch

            def recording():
                batch = pull()
                if batch is not None:
                    ids.append(np.asarray(batch.ids, dtype=np.int64))
                return batch

            child.next_batch = recording
        else:  # the parent commit: how the goldens were recorded
            pull_one = child.next

            def recording_one():
                record = pull_one()
                if record is not None:
                    ids.append(np.asarray([record.tuple_id], dtype=np.int64))
                return record

            child.next = recording_one

    epoch_wall = RuntimeContext.epoch_wall_time

    def wall(self):
        fills.append(_open_fills(self))
        return epoch_wall(self)

    monkeypatch.setattr(SGDOperator, "__init__", init)
    monkeypatch.setattr(RuntimeContext, "epoch_wall_time", wall)
    result = db.train(spec.to_query())
    stream = np.concatenate(ids)
    where = result.query.extra.get("where")
    return {
        "n_ids": int(stream.size),
        "ids_sha256": hashlib.sha256(stream.astype("<i8").tobytes()).hexdigest(),
        "fills": fills,
        "total_time_s": result.timeline.total_time_s,
        "fetch": where["fetch"] if where else None,
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def test_the_goldens_cover_the_matrix_and_both_where_fetch_paths(goldens):
    assert sorted(goldens) == sorted(case_id(c) for c in CASES)
    fetches = {doc["fetch"] for name, doc in goldens.items() if "where" in name}
    assert fetches == {"index", "scan"}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_visit_order_and_simulated_clock_equal_the_per_tuple_goldens(case, goldens, monkeypatch):
    assert observe(*_engine(case), monkeypatch) == goldens[case_id(case)]


# ----------------------------------------------------------------------
# The carry logic, against the per-tuple loops this design replaced
# ----------------------------------------------------------------------
#
# The oracles below are the deleted per-tuple bodies, kept verbatim: they
# run over the ``next()`` adapter, which loads a child batch exactly when
# the old per-class ``next()`` loaded its page or block — on the first row
# that needs it.


def _fills(ctx: RuntimeContext) -> list[list[float]]:
    """This epoch's fills, then close the epoch."""
    fills = _open_fills(ctx)
    ctx.epoch_wall_time()
    return fills


def _ctx(double_buffer: bool = True) -> RuntimeContext:
    return RuntimeContext(
        device=SSD, compute=ENGINE_PROFILE, double_buffer=double_buffer, values_per_tuple=6.0
    )


def drain_batches(op, ctx, epochs: int = 2):
    """``(ids, fills)`` per epoch, read the way the engine reads: by batch."""
    out = []
    op.open()
    for epoch in range(epochs):
        ids: list[int] = []
        while (batch := op.next_batch()) is not None:
            assert len(batch) >= 1  # the contract: never an empty batch
            ids.extend(np.asarray(batch.ids).tolist())
        out.append((ids, _fills(ctx)))
        if epoch + 1 < epochs:
            op.rescan()
    op.close()
    return out


def drain_tuples(op, ctx, epochs: int = 2):
    """The same, through the per-tuple ``next()`` adapter."""
    out = []
    op.open()
    for epoch in range(epochs):
        ids = [record.tuple_id for record in op]
        out.append((ids, _fills(ctx)))
        if epoch + 1 < epochs:
            op.rescan()
    op.close()
    return out


def reference_tuple_shuffle(child, ctx, buffer_tuples: int, seed: int, epochs: int = 2):
    """``TupleShuffleOperator`` as it was: one ``ShuffleBuffer`` per fill,
    filled one ``child.next()`` at a time."""
    out = []
    child.open()
    for epoch in range(epochs):
        rng = stream_rng(seed, epoch, TUPLE_SHUFFLE_STREAM)
        ids: list[int] = []
        exhausted = False
        while not exhausted:
            buffer = ShuffleBuffer(buffer_tuples, rng)
            while not buffer.full:
                record = child.next()
                if record is None:
                    exhausted = True
                    break
                buffer.add(record)
            if len(buffer) == 0:
                break
            n = len(buffer)
            ids.extend(record.tuple_id for record in buffer.shuffle_and_drain())
            ctx.end_fill(n)
        out.append((ids, _fills(ctx)))
        if epoch + 1 < epochs:
            child.rescan()
    return out


def reference_pass_through(child, ctx, chunk_tuples: int, epochs: int = 2):
    """``PassThroughAccountingOperator`` as it was: count tuples, close a fill."""
    out = []
    child.open()
    for epoch in range(epochs):
        ids: list[int] = []
        since_fill = 0
        for record in child:
            ids.append(record.tuple_id)
            since_fill += 1
            if since_fill >= chunk_tuples:
                ctx.end_fill(since_fill)
                since_fill = 0
        if since_fill:
            ctx.end_fill(since_fill)
        out.append((ids, _fills(ctx)))
        if epoch + 1 < epochs:
            child.rescan()
    return out


@st.composite
def geometries(draw):
    """A small table, maybe with a hole DELETEd into it, and a pipeline shape."""
    n = draw(st.integers(40, 260))
    sparse = draw(st.booleans())
    lo = draw(st.floats(0.0, 0.9))
    return {
        "n": n,
        "sparse": sparse,
        "page_bytes": draw(st.sampled_from([256, 512, 1024])),
        "pool_pages": draw(st.sampled_from([2, 5, 1 << 30])),
        "pages_per_block": draw(st.integers(1, 4)),
        # Up to past the table: one short fill holds everything.
        "buffer_tuples": draw(st.integers(1, n + 40)),
        # Rows with lo <= f0 <= hi go: wide holes empty whole pages and blocks.
        "hole": draw(st.one_of(st.none(), st.just((lo, lo + draw(st.floats(0.01, 0.6)))))),
        "seed": draw(st.integers(0, 5)),
    }


def _table(geometry):
    n = geometry["n"]
    if geometry["sparse"]:
        dataset = make_binary_sparse(n, 40, nnz_per_row=5, seed=3)
        column = "label"
    else:
        dataset = make_binary_dense(n, 5, seed=3)
        dataset.X[:, 0] = np.linspace(0.0, 1.0, n)
        column = "f0"
    db = MiniDB(page_bytes=geometry["page_bytes"], pool_pages=geometry["pool_pages"])
    db.create_table("t", dataset)
    if geometry["hole"] is not None and not geometry["sparse"]:
        lo, hi = geometry["hole"]
        db.execute(f"DELETE FROM t WHERE {column} >= {lo} AND {column} <= {hi}")
    return db.catalog.get("t")


def _both(table, build, reference):
    """Run the batch operator and its per-tuple oracle from a cold pool each."""
    table.pool.clear()
    ctx = _ctx()
    got = drain_batches(build(ctx), ctx)
    table.pool.clear()
    ctx = _ctx()
    return got, reference(ctx)


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(geometries(), st.sampled_from(["keep", "shuffle", "reverse"]))
def test_tuple_shuffle_carries_the_block_that_crosses_a_fill(geometry, within):
    """Ids *and* the fill each block's I/O lands in: a buffer that is no
    multiple of a block, a short last fill, emptied pages, a buffer larger
    than the table."""
    table = _table(geometry)
    if table.n_tuples == 0:
        return
    block_bytes = geometry["pages_per_block"] * geometry["page_bytes"]
    seed, buffer_tuples = geometry["seed"], geometry["buffer_tuples"]

    def scan(ctx):
        return BlockShuffleOperator(table, ctx, block_bytes, seed=seed, within=within)

    got, want = _both(
        table,
        lambda ctx: TupleShuffleOperator(scan(ctx), ctx, buffer_tuples, seed=seed),
        lambda ctx: reference_tuple_shuffle(scan(ctx), ctx, buffer_tuples, seed),
    )
    assert got == want
    assert sorted(got[0][0]) == sorted(got[1][0])  # every epoch visits the same rows


@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(geometries(), st.sampled_from(["seq", "block", "window", "mrs", "permuted"]))
def test_pass_through_rechunks_so_every_fill_is_charged_its_own_pages(geometry, child_kind):
    table = _table(geometry)
    if table.n_tuples == 0:
        return
    block_bytes = geometry["pages_per_block"] * geometry["page_bytes"]
    seed, chunk = geometry["seed"], geometry["buffer_tuples"]

    def child(ctx):
        if child_kind == "seq":
            return SeqScanOperator(table, ctx)
        if child_kind == "block":
            return BlockShuffleOperator(table, ctx, block_bytes, seed=seed)
        if child_kind == "window":
            return SlidingWindowOperator(SeqScanOperator(table, ctx), max(1, chunk // 2), seed=seed)
        if child_kind == "mrs":
            return MultiplexedReservoirOperator(
                SeqScanOperator(table, ctx), max(1, chunk // 2), seed=seed
            )
        return PermutedScanOperator(table, ctx, seed=seed, charge="random_tuple")

    got, want = _both(
        table,
        lambda ctx: PassThroughAccountingOperator(child(ctx), ctx, chunk),
        lambda ctx: reference_pass_through(child(ctx), ctx, chunk),
    )
    assert got == want


OPERATORS = {
    "SeqScan": lambda t, ctx: SeqScanOperator(t, ctx),
    "FilteredSeqScan": lambda t, ctx: FilteredSeqScanOperator(
        t, ctx, np.arange(0, t.n_tuples, 3)
    ),
    "BlockShuffle": lambda t, ctx: BlockShuffleOperator(t, ctx, 2048, seed=3, within="shuffle"),
    "RidBlockShuffle": lambda t, ctx: RidBlockShuffleOperator(
        t, ctx, subset_partition(t.heap, np.arange(0, t.n_tuples, 3), 2048), seed=3
    ),
    "TupleShuffle": lambda t, ctx: TupleShuffleOperator(
        BlockShuffleOperator(t, ctx, 2048, seed=3), ctx, 55, seed=3
    ),
    "PassThroughAccounting": lambda t, ctx: PassThroughAccountingOperator(
        SeqScanOperator(t, ctx), ctx, 55
    ),
    "PermutedScan": lambda t, ctx: PermutedScanOperator(t, ctx, seed=3, charge="sort"),
    "SlidingWindow": lambda t, ctx: SlidingWindowOperator(SeqScanOperator(t, ctx), 55, seed=3),
    "MultiplexedReservoir": lambda t, ctx: MultiplexedReservoirOperator(
        SeqScanOperator(t, ctx), 55, seed=3
    ),
    "ThreadedTupleShuffle": lambda t, ctx: ThreadedTupleShuffleOperator(
        BlockShuffleOperator(t, ctx, 2048, seed=3), 55, seed=3
    ),
}


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("name", OPERATORS)
def test_the_next_adapter_reads_the_same_stream_as_next_batch(name, kind):
    table = MiniDB(page_bytes=1024, pool_pages=8).create_table("t", _dataset(kind))
    runs = []
    for drain in (drain_batches, drain_tuples):
        table.pool.clear()
        ctx = _ctx()
        runs.append(drain(OPERATORS[name](table, ctx), ctx))
    assert runs[0] == runs[1]
    assert len(runs[0][0][0]) > 0


# ----------------------------------------------------------------------
# The SGD root: same unit boundaries, same resume
# ----------------------------------------------------------------------


def reference_model(db: MiniDB, spec: TrainSpec):
    """``SGDOperator._run_epoch`` as it was: pull tuples one at a time,
    ``collate`` every ``unit`` of them, step."""
    plan, table = db.plan(spec.to_query()), db.catalog.get("t")
    ctx = _ctx(plan.double_buffer)
    pipeline, _scan = db._build_pipeline(plan, table, ctx)
    model = db._build_model(spec, table)
    optimizer = SGD(model) if spec.batch_size > 1 else None
    schedule = ExponentialDecay(spec.lr, spec.decay)
    unit = 256 if spec.batch_size == 1 else spec.batch_size

    def apply(pending, lr):
        batch = collate(pending)
        if optimizer is not None:
            optimizer.step(model.gradient(batch.X, batch.y), lr)
        else:
            model.step_block(batch.X, batch.y, lr)

    pipeline.open()
    for epoch in range(spec.epochs):
        lr, pending = float(schedule(epoch)), []
        for record in pipeline:
            pending.append(record)
            if len(pending) == unit:
                apply(pending, lr)
                pending = []
        if pending:
            apply(pending, lr)
        if epoch + 1 < spec.epochs:
            pipeline.rescan()
    return model


def _weights(model) -> np.ndarray:
    return np.asarray(model.parameter_vector())


@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    strategy=st.sampled_from(["corgipile", "no_shuffle", "block_reshuffle", "sliding_window", "mrs"]),
    kind=st.sampled_from(["dense", "sparse"]),
    layout=st.sampled_from(["row", "columnar"]),
    batch_size=st.sampled_from([1, 32, 50]),
    # Fills of 1..all rows against 256-row (or batch_size-row) units: units
    # straddle fills, fills straddle blocks.
    buffer_fraction=st.floats(0.01, 1.0),
    stop_draw=st.integers(0, 1000),
    every_tuples=st.sampled_from([0, 64, 300]),
)
def test_units_are_cut_at_the_same_rows_and_resume_lands_mid_fill(
    tmp_path_factory, strategy, kind, layout, batch_size, buffer_fraction, stop_draw, every_tuples
):
    dataset = _dataset(kind)
    spec = TrainSpec(
        table="t", model="svm", strategy=strategy, epochs=2, lr=0.05, decay=0.9, seed=SEED,
        fused=True, batch_size=batch_size, block_size=2048, buffer_fraction=buffer_fraction,
    )

    def engine() -> MiniDB:
        db = MiniDB(page_bytes=1024, pool_pages=8)
        db.create_table("t", dataset, layout=layout)
        return db

    # LinearSVM has l2 != 0: the lazy-scale rematerialisation at the end of
    # every step_block makes the unit boundaries part of the bits.
    want = _weights(reference_model(engine(), spec))
    np.testing.assert_array_equal(_weights(engine().train(spec.to_query()).model), want)

    checkpoint = CheckpointConfig(
        tmp_path_factory.mktemp("resume") / "run.ckpt.npz", every_tuples=every_tuples
    )
    unit = 256 if batch_size == 1 else batch_size
    stop_after = 1 + stop_draw % (spec.epochs * (dataset.n_tuples // unit))  # some full unit
    probes = []

    def should_stop() -> bool:
        probes.append(None)
        return len(probes) >= stop_after

    with pytest.raises(TrainInterrupted):
        engine().train(spec.to_query(), checkpoint=checkpoint, should_stop=should_stop)
    resumed = engine().train(spec.to_query(), checkpoint=checkpoint)
    np.testing.assert_array_equal(_weights(resumed.model), want)


# ----------------------------------------------------------------------
# The round trip cannot come back
# ----------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 32])
@pytest.mark.parametrize("kind, layout", [("dense", "row"), ("sparse", "columnar")])
def test_a_fused_train_never_explodes_a_batch_into_tuples(monkeypatch, kind, layout, batch_size):
    import repro.core.dataloader

    def forbidden(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} called on the fused TRAIN path")

        return raiser

    monkeypatch.setattr(TupleBatch, "to_tuples", forbidden("TupleBatch.to_tuples"))
    monkeypatch.setattr(LazyTupleBatch, "to_tuples", forbidden("LazyTupleBatch.to_tuples"))
    monkeypatch.setattr(repro.core.dataloader, "collate", forbidden("collate"))
    monkeypatch.setattr(BufferPool, "get_page_traced", forbidden("BufferPool.get_page_traced"))
    db = MiniDB(page_bytes=1024, pool_pages=8)
    db.create_table("t", _dataset(kind), layout=layout)
    result = db.execute(
        "SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 2, learning_rate = 0.05, "
        f"block_size = 2KB, fused = true, batch_size = {batch_size}"
    )
    assert np.any(_weights(result.model) != 0.0)


if __name__ == "__main__":  # --regen, against the per-tuple parent checkout
    assert sys.argv[1:] == ["--regen"], "usage: test_operator_batches.py --regen"
    from _pytest.monkeypatch import MonkeyPatch

    docs = {}
    for case in CASES:
        with MonkeyPatch.context() as mp:
            docs[case_id(case)] = observe(*_engine(case), mp)
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(docs)} cases to {GOLDENS}")
