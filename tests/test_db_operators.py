"""Tests for the Volcano physical operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data import make_binary_dense
from repro.db import (
    BlockShuffleOperator,
    Catalog,
    MiniDB,
    PassThroughAccountingOperator,
    SeqScanOperator,
    TupleShuffleOperator,
)
from repro.db import operators
from repro.db.engine import ENGINE_PROFILE
from repro.db.timing import RuntimeContext
from repro.storage import SSD, TupleBatch
from repro.storage.codec import PermutedBatch

from .conftest import pass_ids


@pytest.fixture()
def table(dense_binary):
    catalog = Catalog(page_bytes=1024)
    return catalog.create_table("t", dense_binary)


@pytest.fixture()
def ctx():
    return RuntimeContext(device=SSD, compute=ENGINE_PROFILE, values_per_tuple=12.0)


class TestSeqScan:
    def test_scans_in_heap_order(self, table, ctx):
        scan = SeqScanOperator(table, ctx)
        scan.open()
        ids = pass_ids(scan)
        assert ids == list(range(table.n_tuples))

    def test_rescan_restarts(self, table, ctx):
        scan = SeqScanOperator(table, ctx)
        scan.open()
        first = scan.next_batch().ids[:5].tolist()
        scan.rescan()
        second = scan.next_batch().ids[:5].tolist()
        assert first == second == [0, 1, 2, 3, 4]

    def test_charges_io(self, table, ctx):
        scan = SeqScanOperator(table, ctx)
        scan.open()
        pass_ids(scan)
        assert ctx.total_io_s > 0


class TestBlockShuffle:
    def test_covers_all_tuples(self, table, ctx):
        op = BlockShuffleOperator(table, ctx, block_bytes=4096, seed=1)
        op.open()
        ids = sorted(pass_ids(op))
        assert ids == list(range(table.n_tuples))

    def test_blocks_emitted_contiguously(self, table, ctx):
        op = BlockShuffleOperator(table, ctx, block_bytes=4096, seed=1)
        op.open()
        ids = pass_ids(op)
        # Within a block ids ascend by 1; only block boundaries may jump
        # (and adjacent shuffled blocks can coincidentally be consecutive).
        jumps = int(np.sum(np.diff(ids) != 1))
        assert 0 < jumps <= op.n_blocks - 1

    def test_block_order_is_shuffled(self, table, ctx):
        op = BlockShuffleOperator(table, ctx, block_bytes=4096, seed=1)
        op.open()
        ids = pass_ids(op)
        assert ids != sorted(ids)

    def test_rescan_reshuffles(self, table, ctx):
        op = BlockShuffleOperator(table, ctx, block_bytes=4096, seed=1)
        op.open()
        first = pass_ids(op)
        op.rescan()
        second = pass_ids(op)
        assert sorted(first) == sorted(second)
        assert first != second

    def test_buffer_pool_hits_cheaper_second_pass(self, table, ctx):
        op = BlockShuffleOperator(table, ctx, block_bytes=4096, seed=1)
        op.open()
        pass_ids(op)
        cold_io = ctx.total_io_s
        op.rescan()
        pass_ids(op)
        warm_io = ctx.total_io_s - cold_io
        assert warm_io < cold_io / 10  # cached pages at memory speed


class TestWarmBlocks:
    """A second TRAIN on a table the default pool keeps reads every block as
    a kept run: no ``concat`` in the block scan, no columnar chunk decoded,
    and the same weights."""

    SQL = "SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 2, block_size = 4KB, seed = 3"

    def _warm_train(self, layout, monkeypatch):
        """``(concats in BlockShuffleOperator, chunks decoded)`` of the second TRAIN."""
        db = MiniDB(page_bytes=1024)
        db.create_table("t", make_binary_dense(600, 12, separation=1.2, seed=11), layout=layout)
        first = db.execute(self.SQL)

        depth, concats = [0], [0]
        load, concat = BlockShuffleOperator._load_next_block, TupleBatch.concat.__func__

        def counted_load(op):
            depth[0] += 1
            try:
                return load(op)
            finally:
                depth[0] -= 1

        def counted_concat(cls, batches):
            concats[0] += depth[0] > 0
            return concat(cls, batches)

        monkeypatch.setattr(BlockShuffleOperator, "_load_next_block", counted_load)
        monkeypatch.setattr(TupleBatch, "concat", classmethod(counted_concat))
        was_on, registry = obs.enabled(), obs.get_registry()
        obs.enable()
        decoded = registry.counter("storage.columnar.chunks_decoded")
        try:
            second = db.execute(self.SQL)
        finally:
            if not was_on:
                obs.disable()
        decoded = registry.counter("storage.columnar.chunks_decoded") - decoded
        for key in first.model.params:
            np.testing.assert_array_equal(first.model.params[key], second.model.params[key])
        return concats[0], decoded

    def test_a_warm_row_train_makes_no_block_concat(self, monkeypatch):
        assert self._warm_train("row", monkeypatch)[0] == 0

    def test_a_warm_columnar_train_decodes_no_chunk(self, monkeypatch):
        assert self._warm_train("columnar", monkeypatch) == (0, 0)


class TestTupleShuffle:
    def test_emits_all_tuples_shuffled(self, table, ctx):
        child = BlockShuffleOperator(table, ctx, block_bytes=4096, seed=2)
        op = TupleShuffleOperator(child, ctx, buffer_tuples=100, seed=2)
        op.open()
        ids = pass_ids(op)
        assert sorted(ids) == list(range(table.n_tuples))
        # Tuple-level shuffle destroys the within-block contiguity.
        assert np.mean(np.abs(np.diff(ids)) == 1) < 0.3

    def test_fill_boundaries_recorded(self, table, ctx):
        child = SeqScanOperator(table, ctx)
        op = TupleShuffleOperator(child, ctx, buffer_tuples=100, seed=0)
        op.open()
        pass_ids(op)
        ctx.epoch_wall_time()
        assert ctx.tuples_processed == table.n_tuples

    def test_rescan_resets(self, table, ctx):
        child = SeqScanOperator(table, ctx)
        op = TupleShuffleOperator(child, ctx, buffer_tuples=50, seed=0)
        op.open()
        first = pass_ids(op)
        op.rescan()
        second = pass_ids(op)
        assert sorted(first) == sorted(second)
        assert first != second  # new epoch, new buffer shuffles

    def test_invalid_buffer(self, table, ctx):
        with pytest.raises(ValueError):
            TupleShuffleOperator(SeqScanOperator(table, ctx), ctx, buffer_tuples=0)


class TestShuffledFillByIndex:
    """A TupleShuffle fill is emitted unshuffled with its permutation, and
    the SGD operator applies each update unit off it by index: a per-tuple
    fused TRAIN gathers no row into shuffled order except for a unit that
    straddles two fills, and trains the bits of gathering every fill."""

    SQL = (
        "SELECT * FROM t TRAIN BY svm WITH max_epoch_num = 2, block_size = 4KB, "
        "buffer_fraction = 0.2, fused = true, seed = 3"
    )
    UNIT = 256  # SGDOperator's FUSE_CHUNK: the per-tuple update unit

    def _train(self):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", make_binary_dense(3000, 12, separation=1.2, seed=11))
        return db.execute(self.SQL).model.parameter_vector()

    def test_a_fused_train_gathers_at_most_one_unit_at_a_time(self, monkeypatch):
        sizes = []
        take = TupleBatch.take
        monkeypatch.setattr(
            TupleBatch, "take", lambda batch, rows: sizes.append(len(rows)) or take(batch, rows)
        )
        weights = self._train()
        # A 600-row fill is no whole number of 256-row units: units straddle.
        assert sizes and max(sizes) <= self.UNIT
        monkeypatch.undo()
        monkeypatch.setattr(operators, "PermutedBatch", lambda base, order: base.take(order))
        np.testing.assert_array_equal(weights, self._train())

    def test_the_emitted_fill_reads_as_its_shuffled_rows(self, table, ctx):
        op = TupleShuffleOperator(SeqScanOperator(table, ctx), ctx, buffer_tuples=100, seed=2)
        op.open()
        fill = op.next_batch()
        assert isinstance(fill, PermutedBatch) and len(fill) == 100
        rows = fill.base.take(fill.order)
        np.testing.assert_array_equal(fill.ids, rows.ids)
        np.testing.assert_array_equal(fill.features_matrix(), rows.dense)
        np.testing.assert_array_equal(fill.slice(10, 20).ids, rows.ids[10:20])
        part = TupleBatch.concat([fill.slice(90, 100), op.next_batch().slice(0, 5)])
        assert type(part) is TupleBatch and len(part) == 15


class TestPassThrough:
    def test_preserves_order_and_counts_fills(self, table, ctx):
        child = SeqScanOperator(table, ctx)
        op = PassThroughAccountingOperator(child, ctx, chunk_tuples=64)
        op.open()
        ids = pass_ids(op)
        assert ids == list(range(table.n_tuples))
        assert ctx.tuples_processed == table.n_tuples

    def test_invalid_chunk(self, table, ctx):
        with pytest.raises(ValueError):
            PassThroughAccountingOperator(SeqScanOperator(table, ctx), ctx, 0)
