"""WHERE planning in packed RID arrays, held to the per-row planner it replaced.

The oracle below is the per-row planner as it stood before RID sets became
``int64`` arrays: index probes walked ``BPlusTree.range`` one ``(key, RID)``
at a time and mapped each RID to a heap position, page sets were Python
sets, and ``subset_partition`` packed virtual pages row by row.  It is kept
here verbatim in substance (only its return shapes are plain lists), and
every drawn table, DML history, predicate and block size must plan to the
same answer: the same candidates, path table, virtual pages and blocks,
and the same ``extra["where"]`` document.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.data import Dataset, SparseMatrix
from repro.db import MiniDB, parse_query
from repro.db import where
from repro.db.query import parse_predicate
from repro.storage import HDD_SCALED, NVM_SCALED, SSD_SCALED
from repro.storage.index import BPlusTree
from repro.storage.rid import RID

from tests import _dml_workload as workload

# ----------------------------------------------------------------------
# The per-row oracle
# ----------------------------------------------------------------------


def oracle_index_candidates(table, index, predicate) -> np.ndarray:
    """Sorted heap positions inside the index's usable interval."""
    lo, hi, lo_incl, hi_incl = predicate.interval_for(index.column)
    rids = (rid for _key, rid in index.tree.range(lo, hi, lo_incl, hi_incl))
    return np.asarray(sorted(table.heap.position_of(rid) for rid in rids), dtype=np.int64)


def oracle_page_fetch_estimate(heap, positions, device) -> tuple[float, int, int]:
    qual_pages = sorted({heap.rid_of(int(p)).page_id for p in positions})
    runs = 0
    prev = None
    for page_id in qual_pages:
        if prev is None or page_id != prev + 1:
            runs += 1
        prev = page_id
    avg_page_bytes = heap.payload_bytes / max(1, heap.n_pages)
    est = device.random_time(avg_page_bytes * len(qual_pages) / max(1, runs), runs)
    return est, len(qual_pages), runs


def oracle_where_doc(table, predicate, device) -> tuple[np.ndarray, dict]:
    """``plan_where_access`` + ``choose_where_path``, per row."""
    heap = table.heap
    dataset = table.dataset
    mask = predicate.mask(dataset.X, dataset.y)
    indexes = where.usable_indexes(table, predicate)
    candidates = {ix.name: oracle_index_candidates(table, ix, predicate) for ix in indexes}
    paths = {
        "scan": {
            "est_s": device.sequential_time(float(heap.payload_bytes)),
            "n_candidates": int(table.n_tuples),
        }
    }
    for ix in indexes:
        est, n_pages, runs = oracle_page_fetch_estimate(heap, candidates[ix.name], device)
        paths[f"index:{ix.name}"] = {
            "est_s": est, "n_candidates": int(candidates[ix.name].size),
            "n_pages": n_pages, "page_runs": runs,
        }
    inter = None
    if len(indexes) >= 2:
        inter = candidates[indexes[0].name]
        for ix in indexes[1:]:
            inter = np.intersect1d(inter, candidates[ix.name], assume_unique=True)
        est, n_pages, runs = oracle_page_fetch_estimate(heap, inter, device)
        paths["intersect"] = {
            "est_s": est, "n_candidates": int(inter.size), "n_pages": n_pages,
            "page_runs": runs, "indexes": [ix.name for ix in indexes],
        }
    access = min(paths, key=lambda name: (paths[name]["est_s"], name != "scan"))
    index = None
    if access == "scan":
        positions = np.flatnonzero(mask)
    elif access == "intersect":
        positions = inter[mask[inter]]
    else:
        index = next(ix for ix in indexes if f"index:{ix.name}" == access)
        cand = candidates[index.name]
        positions = cand[mask[cand]]
    est_index_s, n_qual_pages, runs = oracle_page_fetch_estimate(heap, positions, device)
    est_scan_s = device.sequential_time(float(heap.payload_bytes))
    interval = None
    if index is not None:
        lo, hi, lo_incl, hi_incl = predicate.interval_for(index.column)
        interval = {"lo": lo, "hi": hi, "lo_inclusive": lo_incl, "hi_inclusive": hi_incl}
    doc = {
        "predicate": predicate.render(),
        "index": index.name if index is not None else None,
        "index_column": index.column if index is not None else None,
        "interval": interval,
        "n_matching": int(len(positions)),
        "n_tuples": int(table.n_tuples),
        "selectivity": len(positions) / max(1, table.n_tuples),
        "n_qualifying_pages": n_qual_pages,
        "n_heap_pages": int(heap.n_pages),
        "page_runs": runs,
        "est_index_s": est_index_s,
        "est_scan_s": est_scan_s,
        "fetch": "index" if access != "scan" and est_index_s < est_scan_s else "scan",
        "access": access,
        "paths": {
            name: {k: (round(v, 9) if isinstance(v, float) else v) for k, v in p.items()}
            for name, p in paths.items()
        },
    }
    return positions, doc


def oracle_subset_partition(heap, positions, block_bytes):
    """``(virtual pages, blocks, n_heap_pages, payload_bytes)``: each page a
    list of RIDs, each block ``(rids, page_ids)``."""
    pages: list[list[RID]] = []
    used = 0
    capacity = 0
    total_payload = 0
    for new_id, position in enumerate(positions):
        rid = heap.rid_of(int(position))
        if heap.compress:
            tup = heap.read_rid(rid)
            length = len(heap.encode_payload(new_id, tup.label, tup.features))
        else:
            length = heap.pages[rid.page_id].payload_length(rid.slot)
        if not pages or used + length > capacity:
            pages.append([])
            used = 0
            capacity = max(heap.page_bytes, length)
        pages[-1].append(rid)
        used += length
        total_payload += length
    per = max(1, int(block_bytes) // heap.page_bytes)
    blocks = []
    for first in range(0, len(pages), per):
        rids = [rid for vpage in pages[first : first + per] for rid in vpage]
        page_ids: list[int] = []
        for rid in rids:
            if rid.page_id not in page_ids:
                page_ids.append(rid.page_id)
        blocks.append((rids, tuple(page_ids)))
    n_heap_pages = len({rid.page_id for vpage in pages for rid in vpage})
    return pages, blocks, n_heap_pages, total_payload


def packed(rids) -> list[int]:
    return [RID(*rid).packed() for rid in rids]


# ----------------------------------------------------------------------
# Drawn tables
# ----------------------------------------------------------------------

N_FEATURES = workload.N_FEATURES


def _dataset(kind: str, n_rows: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_rows, N_FEATURES))
    y = np.where(rng.random(n_rows) < 0.5, 1.0, -1.0)
    if kind.startswith("sparse"):
        # Variable-length payloads: each row keeps a random subset of its
        # features (f0 and f1 too, so index keys are often 0.0 duplicates).
        X[rng.random(X.shape) < rng.uniform(0.2, 0.8)] = 0.0
        return Dataset(X=SparseMatrix.from_dense(X), y=y, name="t", task="binary")
    # Coarse keys: duplicate index keys on both columns.
    X[:, :2] = np.round(X[:, :2], 1)
    return Dataset(X=X, y=y, name="t", task="binary")


def _term(column: str, values: np.ndarray, draw) -> str:
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "="]))
    value = float(draw(st.sampled_from(values.tolist()))) if values.size else 0.0
    return f"{column} {op} {value!r}"


@st.composite
def planned_tables(draw):
    kind = draw(st.sampled_from(["dense", "sparse", "dense+compress", "sparse+compress"]))
    page_bytes = draw(st.sampled_from([256, 512, 1024]))
    # Cheap positioning lets the index and intersect paths win on small tables.
    device = draw(st.sampled_from([HDD_SCALED, SSD_SCALED, NVM_SCALED]))
    db = MiniDB(device=device, page_bytes=page_bytes)
    seed = draw(st.integers(0, 2**16))
    db.create_table(
        "t", _dataset(kind, draw(st.integers(30, 160)), seed), compress=kind.endswith("compress")
    )
    table = db.catalog.get("t")
    indexed = draw(st.sampled_from([(), ("f0",), ("f0", "f1"), ("f1", "f0")]))
    for column in indexed:
        db.catalog.create_index("t", f"ix_{column}", column)
    # DML leaves dead slots, reused slots and moved tuples behind.
    workload.apply_ops(table, draw(st.integers(0, 40)), seed=seed)
    X = table.dataset.X.to_dense() if table.is_sparse else table.dataset.X
    terms = [_term("f0", X[:, 0], draw)]
    if draw(st.booleans()):  # a two-sided range on f0
        terms.append(_term("f0", X[:, 0], draw))
    if draw(st.booleans()):
        terms.append(_term("f1", X[:, 1], draw))
    if draw(st.booleans()):  # a residual term no index serves
        terms.append(draw(st.sampled_from(["label = 1", "f2 > 0", "f3 <= 0.5"])))
    predicate = parse_predicate(" AND ".join(terms))
    block_pages = draw(st.integers(1, 16))
    return db, table, predicate, block_pages * page_bytes


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planned=planned_tables())
def test_planning_equals_the_per_row_oracle(planned):
    db, table, predicate, block_bytes = planned
    heap, device = table.heap, db.device
    table.verify_indexes()
    want_positions, want_doc = oracle_where_doc(table, predicate, device)
    event(f"access {want_doc['access']}, {'some' if want_positions.size else 'no'} rows")

    # Per path: one probe's candidates and the pages they cost.
    for index in where.usable_indexes(table, predicate):
        got = where.index_candidates(table, index, predicate)
        cand = oracle_index_candidates(table, index, predicate)
        np.testing.assert_array_equal(got, heap.rids_at(cand))
        assert where._page_fetch_estimate(heap, got, device) == oracle_page_fetch_estimate(
            heap, cand, device
        )
        mask = predicate.mask(table.dataset.X, table.dataset.y)
        np.testing.assert_array_equal(
            where.qualifying_positions(table, predicate), cand[mask[cand]]
        )

    positions, _index, access_doc = where.plan_where_access(table, predicate, device)
    np.testing.assert_array_equal(positions, want_positions)
    assert access_doc["paths"] == want_doc["paths"]

    if not want_positions.size:
        return  # the engine refuses an empty subset; nothing to partition
    # The statement's whole document, through the engine's planner (the
    # drawn predicate itself: its rendering rounds the values).
    spec = parse_query(
        "SELECT * FROM t WHERE f0 > 0 TRAIN BY lr WITH max_epoch_num = 1, "
        f"block_size = {block_bytes}"
    )
    plan = db.plan(dataclasses.replace(spec, where=predicate))
    np.testing.assert_array_equal(plan.positions, want_positions)

    pages, blocks, n_heap_pages, payload_bytes = oracle_subset_partition(
        heap, want_positions, block_bytes
    )
    doc = dict(want_doc, n_virtual_blocks=len(blocks), n_virtual_pages=len(pages))
    assert plan.where == doc

    part = plan.partition
    assert (part.n_virtual_pages, part.n_blocks) == (len(pages), len(blocks))
    assert (part.n_heap_pages, part.payload_bytes) == (n_heap_pages, payload_bytes)
    for block, (rids, page_ids) in zip(part.blocks, blocks):
        assert block.rids.tolist() == packed(rids)
        assert block.page_ids == page_ids
    # One page a block: the blocks are the virtual pages themselves.
    by_page = where.subset_partition(heap, want_positions, heap.page_bytes)
    assert [block.rids.tolist() for block in by_page.blocks] == [packed(p) for p in pages]


# ----------------------------------------------------------------------
# B+tree array probes
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    order=st.integers(4, 8),
    ops=st.lists(
        st.tuples(
            st.booleans(),  # insert (else delete a live entry)
            st.integers(0, 12),  # few distinct keys: many duplicates
            st.integers(0, 40),
            st.integers(0, 9),
        ),
        max_size=160,
    ),
    lo=st.one_of(st.none(), st.integers(-1, 13)),
    hi=st.one_of(st.none(), st.integers(-1, 13)),
    lo_inclusive=st.booleans(),
    hi_inclusive=st.booleans(),
)
def test_range_rids_equals_the_packed_range(order, ops, lo, hi, lo_inclusive, hi_inclusive):
    tree = BPlusTree(order=order)
    live: list[tuple[float, RID]] = []

    def check() -> None:
        bounds = (lo, hi, lo_inclusive, hi_inclusive)
        want = [rid.packed() for _key, rid in tree.range(*bounds)]
        got = tree.range_rids(*bounds)
        assert got.dtype == np.int64 and got.tolist() == want

    for i, (insert, key, page_id, slot) in enumerate(ops):
        entry = (key / 2, RID(page_id, slot))
        if insert and entry not in live:
            tree.insert(*entry)
            live.append(entry)
        elif live:
            tree.delete(*live.pop((key * 7 + i) % len(live)))
        if i % 5 == 0:
            check()  # probes in between build leaf arrays the writes must drop
    check()
    tree.check_invariants()
