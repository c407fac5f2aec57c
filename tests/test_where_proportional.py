"""Statement-proportional WHERE planning: a ``TRAIN ... WHERE`` plan costs
what its qualifying rows cost.

Counts, not timings: on the index path, planning makes no per-row position
lookups (``rid_of`` / ``position_of``), walks no ``(key, RID)`` generator,
evaluates the residual predicate on the candidate rows only, and reads the
slot lengths of the qualifying pages only — so every count is the same at
4 k, 16 k and 64 k rows when 500 of them qualify.
"""

from __future__ import annotations

import numpy as np

from repro.data import make_binary_dense
from repro.db import MiniDB, parse_query
from repro.db.query import Predicate
from repro.storage.heapfile import HeapFile
from repro.storage.index import BPlusTree
from repro.storage.page import Page

N_QUALIFYING = 500


def _plan_counts(n_rows: int, monkeypatch) -> tuple:
    """``(rid_of, position_of, BPlusTree.range calls, rows the predicate
    saw, slot_lengths calls, qualifying pages)`` of planning one statement
    whose index interval holds exactly ``N_QUALIFYING`` rows."""
    dataset = make_binary_dense(n_rows, 6, seed=0)
    dataset.X[:, 0] = np.arange(n_rows, dtype=np.float64)
    db = MiniDB(page_bytes=8192)
    db.create_table("t", dataset)
    db.execute("CREATE INDEX ix0 ON t (f0)")
    spec = parse_query(
        f"SELECT * FROM t WHERE f0 >= {n_rows - N_QUALIFYING} TRAIN BY lr WITH "
        "max_epoch_num = 1, block_size = 32KB"
    )
    calls = {"rid_of": 0, "position_of": 0, "range": 0, "slot_lengths": 0}
    masked = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in (
        (HeapFile, "rid_of"), (HeapFile, "position_of"), (BPlusTree, "range"),
        (Page, "slot_lengths"),
    ):
        counted(owner, name)
    mask = Predicate.mask

    def recorded_mask(predicate, X, y, rows=None):
        masked.append(len(y) if rows is None else len(rows))
        return mask(predicate, X, y, rows)

    monkeypatch.setattr(Predicate, "mask", recorded_mask)
    plan = db.plan(spec)
    monkeypatch.undo()
    assert plan.where["access"] == "index:ix0" and plan.where["fetch"] == "index"
    assert plan.where["n_matching"] == N_QUALIFYING
    return (
        calls["rid_of"],
        calls["position_of"],
        calls["range"],
        masked,
        calls["slot_lengths"],
        plan.where["n_qualifying_pages"],
    )


def test_index_planning_is_flat_in_table_size(monkeypatch):
    by_size = {n: _plan_counts(n, monkeypatch) for n in (4_000, 16_000, 64_000)}
    assert by_size[4_000] == by_size[16_000] == by_size[64_000]
    rid_of, position_of, range_calls, masked, slot_lengths, pages = by_size[4_000]
    # No per-row directory lookups and no per-entry index walk; the
    # residual sees the 500 candidates, and only their pages are read.
    assert (rid_of, position_of, range_calls) == (0, 0, 0)
    assert masked == [N_QUALIFYING]
    assert slot_lengths == pages
