"""Tests for the threaded TupleShuffle operator."""

from __future__ import annotations

import pytest

from repro.db import Catalog
from repro.db.engine import ENGINE_PROFILE
from repro.db.operators import BlockShuffleOperator, SeqScanOperator, TupleShuffleOperator
from repro.db.threaded import ThreadedTupleShuffleOperator
from repro.db.timing import RuntimeContext

from .conftest import pass_ids


@pytest.fixture()
def table(dense_binary):
    return Catalog(page_bytes=512).create_table("t", dense_binary)


def _ctx():
    from repro.storage import SSD

    return RuntimeContext(device=SSD, compute=ENGINE_PROFILE)


class TestThreadedTupleShuffle:
    def test_covers_all_tuples(self, table):
        ctx = _ctx()
        op = ThreadedTupleShuffleOperator(SeqScanOperator(table, ctx), 100, seed=1)
        op.open()
        ids = pass_ids(op)
        op.close()
        assert sorted(ids) == list(range(table.n_tuples))

    def test_matches_synchronous_operator_order(self, table):
        """Drop-in equivalence: same child order + seed => same output order."""
        ctx1, ctx2 = _ctx(), _ctx()
        threaded = ThreadedTupleShuffleOperator(SeqScanOperator(table, ctx1), 100, seed=5)
        sync = TupleShuffleOperator(SeqScanOperator(table, ctx2), ctx2, 100, seed=5)
        threaded.open()
        sync.open()
        threaded_ids = pass_ids(threaded)
        sync_ids = pass_ids(sync)
        threaded.close()
        assert threaded_ids == sync_ids

    def test_rescan_matches_synchronous(self, table):
        ctx1, ctx2 = _ctx(), _ctx()
        threaded = ThreadedTupleShuffleOperator(
            BlockShuffleOperator(table, ctx1, 2048, seed=2), 80, seed=2
        )
        sync = TupleShuffleOperator(
            BlockShuffleOperator(table, ctx2, 2048, seed=2), ctx2, 80, seed=2
        )
        threaded.open()
        sync.open()
        for _ in range(3):
            assert pass_ids(threaded) == pass_ids(sync)
            threaded.rescan()
            sync.rescan()
        threaded.close()

    def test_early_close_terminates_producer(self, table):
        ctx = _ctx()
        op = ThreadedTupleShuffleOperator(SeqScanOperator(table, ctx), 50, seed=0)
        op.open()
        op.next_batch()
        op.close()  # must not hang
        assert op._producer is None

    def test_child_exception_propagates(self, table):
        class Broken(SeqScanOperator):
            def next_batch(self):
                raise RuntimeError("disk on fire")

        ctx = _ctx()
        op = ThreadedTupleShuffleOperator(Broken(table, ctx), 10, seed=0)
        op.open()
        with pytest.raises(RuntimeError, match="disk on fire"):
            pass_ids(op)
        op.close()

    def test_invalid_buffer(self, table):
        with pytest.raises(ValueError):
            ThreadedTupleShuffleOperator(SeqScanOperator(table, _ctx()), 0)
