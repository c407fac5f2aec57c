"""Statement-proportional DML: a write costs what the statement touches.

Counts, not timings: the work a write statement does (tuples decoded, bytes
made durable, view and position-directory rebuilds) must not depend on how
big the table is.  Plus the two properties that make "writes invalidate,
reads rebuild" safe — the lazily rebuilt view always equals a fresh heap
scan, and RID-native predicate resolution returns exactly the rows the
position path does — and the all-or-nothing contract of a failing statement.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.data import make_binary_dense
from repro.db import EngineError, MiniDB
from repro.db.catalog import Catalog
from repro.db.query import parse_predicate
from repro.db.where import plan_where_access, qualifying_positions, qualifying_rids
from repro.storage import SSD
from repro.storage.index import idxlog, load_index
from repro.storage.page import Page

from tests import _dml_workload as workload

COUNTERS = (
    "storage.index.wal_frames",
    "storage.index.wal_bytes",
    "storage.index.checkpoints",
    "db.catalog.view_rebuilds",
    "storage.heapfile.directory_rebuilds",
)


def _counters() -> dict[str, float]:
    registry = obs.get_registry()
    return {name: registry.counter(name) for name in COUNTERS}


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


class TestProportionalByCount:
    def _write_costs(self, n_rows: int, data_dir, monkeypatch) -> list[tuple]:
        """Per write statement of three ``dml_mixed`` rounds: ``(decoded,
        bytes made durable, frames, view rebuilds, directory rebuilds,
        page can_fit calls)``."""
        can_fit_calls = [0]
        can_fit = Page.can_fit

        def counted_can_fit(page, n_bytes):
            can_fit_calls[0] += 1
            return can_fit(page, n_bytes)

        monkeypatch.setattr(Page, "can_fit", counted_can_fit)
        db = MiniDB(page_bytes=8192)
        db.catalog.data_dir = data_dir
        db.create_table("t", make_binary_dense(n_rows, 6, seed=0))
        db.execute("CREATE INDEX ix0 ON t (f0)")
        table = db.catalog.get("t")
        costs = []
        for round_no in range(3):
            key = 1000.0 + round_no
            literal = ", ".join(repr(v) for v in [1.0, key, 0.1, 0.2, 0.3, 0.4, 0.5])
            statements = [
                f"INSERT INTO t VALUES ({literal})",
                f"UPDATE t SET f1 = 0.75 WHERE f0 = {key!r}",
                f"SELECT * FROM t WHERE f0 >= {key - 0.5!r} LIMIT 5",
                f"DELETE FROM t WHERE f0 = {key!r}",
            ]
            for sql in statements:
                decoded, on_disk, before = table.heap.decode_count, _dir_bytes(data_dir), _counters()
                fit_checks = can_fit_calls[0]
                out = db.execute(sql)
                if sql.startswith("SELECT"):
                    assert out["returned"] == 1 and out["via_index"] == "ix0"
                    continue
                after = _counters()
                assert after["storage.index.checkpoints"] == before["storage.index.checkpoints"]
                wal_bytes = after["storage.index.wal_bytes"] - before["storage.index.wal_bytes"]
                assert _dir_bytes(data_dir) - on_disk == wal_bytes
                costs.append(
                    (
                        table.heap.decode_count - decoded,
                        wal_bytes,
                        after["storage.index.wal_frames"] - before["storage.index.wal_frames"],
                        after["db.catalog.view_rebuilds"] - before["db.catalog.view_rebuilds"],
                        after["storage.heapfile.directory_rebuilds"]
                        - before["storage.heapfile.directory_rebuilds"],
                        can_fit_calls[0] - fit_checks,
                    )
                )
        table.verify_indexes()
        return costs

    def test_write_cost_is_flat_in_table_size(self, tmp_path, monkeypatch):
        by_size = {
            n: self._write_costs(n, tmp_path / str(n), monkeypatch)
            for n in (1_000, 4_000, 16_000)
        }
        assert by_size[1_000] == by_size[4_000] == by_size[16_000]
        insert, update, delete = by_size[1_000][:3]
        # decoded tuples, log bytes (16 B header + 15 B per index op), frames,
        # view rebuilds, directory rebuilds, can_fit calls (first fit goes
        # through the free space map and checks no page)
        assert insert == (0, 31, 1, 0, 0, 0)
        assert update == (2, 0, 0, 0, 0, 0)  # f1 is not indexed: no frame, no fsync
        assert delete == (2, 31, 1, 0, 0, 0)

    def test_daemon_stats_report_the_same_counters(self, tmp_path):
        from repro.serve import ReproServer

        stats = ReproServer(tmp_path)
        before = stats.stats()["storage"]
        assert set(before) == {name.rsplit(".", 1)[1] for name in COUNTERS}
        _catalog, info = workload.make_table(tmp_path / "idx")
        info.insert_rows([(1.0, np.zeros(workload.N_FEATURES))])
        after = stats.stats()["storage"]
        assert after["wal_frames"] == before["wal_frames"] + 1
        assert after["wal_bytes"] == before["wal_bytes"] + 31


PREDICATES = (  # every shape tests/test_where_paths.py plans
    "f0 >= 0.4 AND f1 >= 0.5",
    "f0 != 0.5",
    "f0 >= 0 AND f1 != 1",
    "f0 >= 0 AND f0 < 1 AND label = 1",
)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_lazy_view_and_rid_resolution_track_the_heap(sparse):
    """After every op of the seeded stream: the view a reader gets equals
    every live row decoded one at a time, the position directory round-trips
    every live RID, and ``qualifying_rids`` returns the rows — in the order — the
    TRAIN planner's positions (a mask over the view for a ``!=`` shape it
    refuses) map to through ``rid_of``."""
    _catalog, info = workload.make_table(None, sparse=sparse)
    heap, index = info.heap, info.indexes["ix"]
    predicates = [parse_predicate(text) for text in PREDICATES]

    def check(_completed: int) -> None:
        scanned = [heap.read_rid(heap.rid_of(p)) for p in range(heap.n_tuples)]
        dataset = info.dataset
        assert info.n_tuples == dataset.n_tuples == len(scanned)
        np.testing.assert_array_equal(dataset.y, [tup.label for tup in scanned])
        X = dataset.X.to_dense() if sparse else dataset.X
        rows = [tup.features.to_dense() if sparse else tup.features for tup in scanned]
        np.testing.assert_array_equal(X, np.asarray(rows))
        for page in heap.pages:
            for slot in page.live_slots():
                rid = (page.page_id, slot)
                assert heap.rid_of(heap.position_of(rid)) == rid
        for predicate in predicates:
            if any(term.op == "!=" for term in predicate.terms):
                positions = qualifying_positions(info, predicate)
            else:
                positions = plan_where_access(info, predicate, SSD)[0]
            rids, via = qualifying_rids(info, predicate)
            assert list(rids) == [heap.rid_of(int(p)) for p in positions]
            assert (via is index) == (predicate.interval_for("f0") is not None)

    check(0)
    workload.apply_ops(info, 90, progress=check)
    info.verify_indexes()


class TestFailedStatementChangesNothing:
    def _state(self, info, path):
        return (
            info.heap.n_tuples,
            [page.slot_lengths() for page in info.heap.pages],
            list(info.indexes["ix"].tree.items()),
            info.n_tuples,
            info.dataset.n_tuples,
            path.read_bytes(),
            idxlog.log_path(path).read_bytes(),
        )

    def test_heap_tree_view_and_log_stay_at_the_previous_state(self, tmp_path):
        _catalog, info = workload.make_table(tmp_path)
        workload.apply_ops(info, 9)
        path = info.indexes["ix"].path
        ok_row = np.zeros(workload.N_FEATURES)
        dead = [info.heap.rid_of(0)]
        info.delete_rids(dead)
        live = [info.heap.rid_of(3), info.heap.rid_of(4)]
        before = self._state(info, path)
        failing = [
            lambda: info.insert_rows([(1.0, ok_row), (1.0, "bad")]),
            lambda: info.insert_rows([(1.0, ok_row), (1.0, np.zeros(workload.N_FEATURES + 1))]),
            lambda: info.insert_rows([(1.0, ok_row), ("label", ok_row)]),
            lambda: info.update_rids(live, [("f0", 1.0), ("f9", 2.0)]),
            lambda: info.update_rids(live, [("f0", 1.0), ("f1", "bad")]),
            lambda: info.update_rids(live + dead, [("f0", 1.0)]),
            lambda: info.delete_rids(live + dead),
        ]
        for statement in failing:
            with pytest.raises((ValueError, KeyError, EngineError)):
                statement()
            assert self._state(info, path) == before
            info.verify_indexes()
        # ... and the table still takes writes.
        info.update_rids(live, [("f0", 1.0)])
        info.verify_indexes()
        assert list(load_index(path).items()) == list(info.indexes["ix"].tree.items())

    def test_update_of_a_missing_feature_is_a_typed_engine_error(self):
        db = MiniDB(page_bytes=1024)
        db.create_table("t", make_binary_dense(50, 6, seed=1))
        with pytest.raises(EngineError, match="f9.*6 features"):
            db.execute("UPDATE t SET f9 = 1.0 WHERE label = 1")
        with pytest.raises(EngineError, match="f9.*6 features"):
            db.execute("SELECT f9 FROM t")


class TestDroppedIndexFiles:
    def test_drop_table_and_drop_index_unlink_base_and_log(self, tmp_path):
        dataset = make_binary_dense(80, 4, seed=2)
        catalog = Catalog(page_bytes=1024, data_dir=tmp_path)
        info = catalog.create_table("t", dataset)
        catalog.create_index("t", "ix", "f0")
        catalog.create_index("t", "iy", "f1")
        info.insert_rows([(1.0, np.ones(4))])
        assert sorted(os.listdir(tmp_path)) == [
            "t.ix.idx", "t.ix.idx.wal", "t.iy.idx", "t.iy.idx.wal",
        ]
        info.drop_index("iy")
        assert sorted(os.listdir(tmp_path)) == ["t.ix.idx", "t.ix.idx.wal"]
        catalog.drop_table("t")
        assert os.listdir(tmp_path) == []

    def test_create_index_over_a_leftover_pair_starts_a_fresh_log(self, tmp_path):
        """Files of an earlier incarnation (a crashed process never drops):
        the new base starts above every LSN they used, so nothing in the old
        log can replay onto it, whenever a crash interrupts the hand-over."""
        _catalog, old = workload.make_table(tmp_path)
        workload.apply_ops(old, 12)
        path = old.indexes["ix"].path
        stale_log = idxlog.log_path(path).read_bytes()
        assert old.indexes["ix"].lsn == 12 and stale_log

        _catalog, info = workload.make_table(tmp_path)  # re-create + CREATE INDEX
        index = info.indexes["ix"]
        assert index.lsn == 12 and idxlog.log_path(path).read_bytes() == b""
        idxlog.log_path(path).write_bytes(stale_log)  # crash before the log reset
        assert list(load_index(path).items()) == list(index.tree.items())
        idxlog.log_path(path).write_bytes(b"")
        workload.apply_ops(info, 6, seed=9)
        assert index.lsn == 18
        assert list(load_index(path).items()) == list(index.tree.items())


@pytest.mark.parametrize("layout", ["row", "columnar"])
def test_index_audit_and_build_read_rids_off_the_page(layout):
    """``CREATE INDEX`` and ``verify_indexes`` key each row by the RID of the
    slot it sits in — after DML, the RIDs INSERT returned — without
    rebuilding the O(table) position directory."""
    db = MiniDB(page_bytes=1024)
    db.create_table("t", make_binary_dense(300, 6, seed=0), layout=layout)
    table = db.catalog.get("t")
    inserted = []
    if layout == "row":
        # Holes in the pages: a row's scan position is no longer its slot.
        assert db.execute("DELETE FROM t WHERE f0 < 0")["deleted"] > 0
        rows = ", ".join(f"({label}, {key}, 0, 0, 0, 0, 0)" for label, key in ((1, 1000), (-1, 1001)))
        inserted = db.execute(f"INSERT INTO t VALUES {rows}")["rids"]
    registry = obs.get_registry()
    before = registry.counter("storage.heapfile.directory_rebuilds")
    db.execute("CREATE INDEX ix0 ON t (f0)")
    table.verify_indexes()
    assert registry.counter("storage.heapfile.directory_rebuilds") == before
    keyed = dict(table.indexes["ix0"].tree.items())
    assert [list(keyed[key]) for key in (1000.0, 1001.0) if key in keyed] == inserted
    assert sorted(keyed.values()) == [table.heap.rid_of(p) for p in range(table.n_tuples)]
