"""``WHERE`` pushdown for TRAIN/SELECT/DML: RID sets, paths, partitions.

A set of qualifying tuples is one sorted ``int64`` array of packed RIDs
(``page_id << SLOT_BITS | slot``, :mod:`repro.storage.rid`).  That order is
heap order, so intersecting, grouping by page and counting page runs are
numpy calls, not loops over rows.  Three pieces live here:

* :func:`plan_where_access` — the costed access path.  Each usable index
  is probed once (:meth:`~repro.storage.index.BPlusTree.range_rids`), every
  path (full scan, one probe per index, their intersection) is charged by
  the pages its candidates touch, and the cheapest resolves the answer:
  the full predicate re-checked on the candidate rows only.  Every path
  returns the same tuples; only the charged I/O differs.  The answer comes
  back as heap positions, derived once from the RIDs, because the eval set
  is a subset of the table's arrays.  :func:`qualifying_rids` is the same
  answer streamed as RIDs, for UPDATE / DELETE / SELECT.

* :func:`choose_where_path` — the fetch rule.  An index-ordered block fetch
  pays one random positioning per qualifying-page run; a full scan pays one
  sequential pass over the whole heap.  The cheaper estimate (on the
  query's device) wins, so high selectivity flips the plan to the scan
  exactly as in a real optimiser.

* :func:`subset_partition` — the bit-exactness keystone.  ``TRAIN ...
  WHERE`` must visit tuples in the same order CorgiPile would visit a
  *materialised* copy of the filtered subset (``HeapFile.from_dataset``
  over ``dataset.subset(positions)``).  Instead of copying, it replays the
  heap's page-packing rule over the qualifying tuples' stored lengths,
  producing *virtual* pages and blocks that cut the RID array exactly where
  the copy's real pages would.  The block-shuffle permutation then acts on
  virtual block ids, and every fetch resolves through the original heap's
  buffer pool.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

import numpy as np

from ..storage.heapfile import HeapFile
from ..storage.rid import RID, SLOT_BITS, SLOT_MASK, page_runs
from .catalog import TableIndex, TableInfo
from .errors import UnsupportedPredicateError
from .query import Predicate

__all__ = [
    "VirtualBlock",
    "SubsetPartition",
    "qualifying_positions",
    "qualifying_rids",
    "index_candidates",
    "usable_indexes",
    "check_supported_shape",
    "plan_where_access",
    "subset_partition",
    "choose_where_path",
]


def qualifying_positions(table: TableInfo, predicate: Predicate) -> np.ndarray:
    """Heap positions satisfying ``predicate``, by vectorised evaluation.

    Position ``i`` of the heap is row ``i`` of the logical dataset (the
    heap is built from it in order and rebuilt in heap order after DML),
    so a mask over the arrays *is* the answer.  Like the advisor's ``h_D``
    probe, this touches only in-memory statistics — no simulated I/O.
    """
    dataset = table.dataset
    mask = predicate.mask(dataset.X, dataset.y)
    return np.flatnonzero(mask)


def _residual(table: TableInfo, predicate: Predicate, rids: np.ndarray) -> np.ndarray:
    """Heap positions of the candidate ``rids`` that satisfy all of
    ``predicate``: an index interval covers only its key column, so the
    other terms are re-checked, on the candidate rows alone."""
    positions = table.heap.positions_of(rids)
    dataset = table.dataset
    return positions[predicate.mask(dataset.X, dataset.y, rows=positions)]


def qualifying_rids(
    table: TableInfo, predicate: Predicate
) -> tuple[Iterator[RID], TableIndex | None]:
    """RIDs satisfying ``predicate``, streamed in heap order, and the index
    that served them (``None``: full scan of the view).

    Through an index: the probe's RIDs, sorted ``(page_id, slot)`` *is*
    heap order, and the residual is :meth:`Predicate.matches` on each
    candidate as it is reached, read by RID — no directory, no view, and a
    ``LIMIT`` reads only the rows it returns.  Without one: a mask over the
    view, each qualifying position mapped through the position directory.
    """
    heap = table.heap
    indexes = usable_indexes(table, predicate)
    if not indexes:
        return (heap.rid_of(int(p)) for p in qualifying_positions(table, predicate)), None
    tuples = ((rid, heap.read_rid(rid)) for rid in sorted(_index_range(indexes[0], predicate)))
    rids = (rid for rid, tup in tuples if predicate.matches(tup.label, tup.features))
    return rids, indexes[0]


def _index_range(index: TableIndex, predicate: Predicate) -> Iterator[RID]:
    """The RIDs inside the index's usable interval, in key order."""
    lo, hi, lo_incl, hi_incl = _interval(index, predicate)
    return (rid for _key, rid in index.tree.range(lo, hi, lo_incl, hi_incl))


def index_candidates(table: TableInfo, index: TableIndex, predicate: Predicate) -> np.ndarray:
    """The packed RIDs inside the index's usable interval (pre-residual),
    in heap order: one array probe of the B+tree."""
    return np.sort(index.tree.range_rids(*_interval(index, predicate)))


def _interval(index: TableIndex, predicate: Predicate) -> tuple:
    interval = predicate.interval_for(index.column)
    if interval is None:
        raise ValueError(f"index {index.name!r} has no usable interval for this predicate")
    return interval


def usable_indexes(table: TableInfo, predicate: Predicate) -> list[TableIndex]:
    """Every index whose key column carries a usable range in the predicate."""
    out = []
    for column in predicate.columns():
        index = table.index_on(column)
        if index is not None and predicate.interval_for(column) is not None:
            out.append(index)
    return out


def check_supported_shape(predicate: Predicate) -> None:
    """Reject predicate shapes the costed TRAIN planner cannot serve.

    The supported shape is an AND of per-column ranges.  A ``!=`` term has
    no range form; it used to fall through to a silent full scan, which
    made the plan surface lie about what would execute — now it fails
    loudly with a typed error.
    """
    for term in predicate.terms:
        if term.op == "!=":
            raise UnsupportedPredicateError(
                f"WHERE {predicate.render()}: '!=' has no range form; the "
                "costed TRAIN ... WHERE planner serves AND-of-ranges "
                "predicates only (<, <=, =, >=, >)"
            )


def _page_fetch_estimate(heap: HeapFile, rids: np.ndarray, device) -> tuple[float, int, int]:
    """``(est_s, n_pages, runs)`` of an index-ordered fetch of the ascending ``rids``."""
    steps = np.diff(rids >> SLOT_BITS)
    n_pages = int(rids.size and 1 + np.count_nonzero(steps))
    runs = int(rids.size and 1 + np.count_nonzero(steps > 1))
    avg_page_bytes = heap.payload_bytes / max(1, heap.n_pages)
    est = device.random_time(avg_page_bytes * n_pages / max(1, runs), runs)
    return est, n_pages, runs


def _fetch_path(heap: HeapFile, rids: np.ndarray, device) -> dict:
    """The path-table row of an index-ordered fetch of candidates ``rids``."""
    est, n_pages, runs = _page_fetch_estimate(heap, rids, device)
    return {"est_s": est, "n_candidates": int(rids.size), "n_pages": n_pages, "page_runs": runs}


def plan_where_access(
    table: TableInfo, predicate: Predicate, device
) -> tuple[np.ndarray, TableIndex | None, dict]:
    """Costed candidate-enumeration choice for a composite predicate.

    Enumerates every access path — full scan, one range probe per usable
    index, and (with two or more usable indexes) their *intersection* —
    charges each by the pages its candidate RIDs touch, and resolves the
    qualifying positions through the cheapest, reusing its probe.  All
    paths return the same positions (the full predicate is always
    re-applied as a residual filter); only the charged I/O differs.

    Returns ``(positions, index, doc)``: ``index`` is the probe index when
    a single-index path won (``None`` for scan/intersect) and ``doc`` is
    the costed path table merged into ``extra["where"]`` / EXPLAIN.
    """
    check_supported_shape(predicate)
    heap = table.heap
    indexes = usable_indexes(table, predicate)
    candidates = {ix.name: index_candidates(table, ix, predicate) for ix in indexes}
    paths: dict[str, dict] = {
        "scan": {
            "est_s": device.sequential_time(float(heap.payload_bytes)),
            "n_candidates": int(table.n_tuples),
        }
    }
    for ix in indexes:
        paths[f"index:{ix.name}"] = _fetch_path(heap, candidates[ix.name], device)
    inter = None
    if len(indexes) >= 2:
        inter = candidates[indexes[0].name]
        for ix in indexes[1:]:
            inter = np.intersect1d(inter, candidates[ix.name], assume_unique=True)
        paths["intersect"] = {
            **_fetch_path(heap, inter, device),
            "indexes": [ix.name for ix in indexes],
        }
    # Cheapest wins; an exact tie resolves to the scan (simplest plan, and
    # a tied "random" fetch degenerated into a sequential pass anyway).
    access = min(paths, key=lambda name: (paths[name]["est_s"], name != "scan"))
    index = None
    if access == "scan":
        positions = qualifying_positions(table, predicate)
    else:
        if access != "intersect":
            index = next(ix for ix in indexes if f"index:{ix.name}" == access)
        positions = _residual(table, predicate, inter if index is None else candidates[index.name])
    doc = {
        "access": access,
        "paths": {
            name: {k: (round(v, 9) if isinstance(v, float) else v) for k, v in p.items()}
            for name, p in paths.items()
        },
    }
    return positions, index, doc


@dataclass(frozen=True, eq=False)
class VirtualBlock:
    """One virtual block: the qualifying tuples a materialised copy's
    block would hold, addressed by their *original* heap locations."""

    block_id: int
    #: Packed RIDs in visit order (heap order): a slice of the subset's.
    rids: np.ndarray
    #: Distinct real heap pages the RIDs live on, ascending.
    page_ids: tuple[int, ...]


@dataclass(frozen=True)
class SubsetPartition:
    """The virtual page/block layout of a filtered subset."""

    blocks: tuple[VirtualBlock, ...]
    n_tuples: int
    n_virtual_pages: int
    pages_per_block: int
    page_bytes: int
    block_bytes: int
    #: Distinct real heap pages holding any qualifying tuple.
    n_heap_pages: int = field(default=0)
    #: Total payload bytes the materialised copy would hold.
    payload_bytes: int = field(default=0)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def subset_partition(
    heap: HeapFile, positions: np.ndarray, block_bytes: int
) -> SubsetPartition:
    """Replay ``HeapFile.from_dataset`` packing over the filtered subset.

    A materialised copy would re-encode tuple ``positions[i]`` with the new
    id ``i`` and append it; a page closes when the next payload no longer
    fits.  Uncompressed payloads have id-independent length (fixed-width
    header), so the stored slot length is the copy's length, read per heap
    page; compressed payloads are re-encoded with the new id to get the
    exact zlib size.  A virtual page that starts at tuple ``i`` holds the
    tuples whose running length fits ``max(page_bytes, length[i])``: one
    search of the cumulative lengths per page.  Blocks then group virtual
    pages by the heap's page-run rule.
    """
    if block_bytes < heap.page_bytes:
        raise ValueError("block_bytes must be at least one page")
    rids = heap.rids_at(positions)
    runs = page_runs(rids)
    if heap.compress:
        tuples = map(heap.read_rid, map(RID.from_packed, rids))
        lengths = [len(heap.encode_payload(i, t.label, t.features)) for i, t in enumerate(tuples)]
    else:
        # The qualifying pages' slot lengths end to end, then one gather.
        slot_lengths = [heap.pages[page_id].slot_lengths() for page_id, _lo, _hi in runs]
        page_offset = np.cumsum([0, *map(len, slot_lengths)])[:-1]
        rids_per_page = [hi - lo for _page_id, lo, hi in runs]
        lengths = np.fromiter(chain.from_iterable(slot_lengths), np.int64)[
            np.repeat(page_offset, rids_per_page) + (rids & SLOT_MASK)
        ]
    ends = [0, *np.cumsum(lengths, dtype=np.int64).tolist()]  # bytes before tuple i
    bounds = [0]  # virtual page k holds rids[bounds[k]:bounds[k + 1]]
    while bounds[-1] < rids.size:
        i = bounds[-1]
        room = ends[i] + max(heap.page_bytes, ends[i + 1] - ends[i])
        bounds.append(bisect_right(ends, room) - 1)
    per = max(1, int(block_bytes) // heap.page_bytes)
    run_pages = [page_id for page_id, _lo, _hi in runs]
    run_starts = [lo for _page_id, lo, _hi in runs]
    blocks = []
    for block_id, first in enumerate(range(0, len(bounds) - 1, per)):
        lo, hi = bounds[first], bounds[min(first + per, len(bounds) - 1)]
        pages = run_pages[bisect_right(run_starts, lo) - 1 : bisect_left(run_starts, hi)]
        blocks.append(VirtualBlock(block_id, rids[lo:hi], tuple(pages)))
    return SubsetPartition(
        blocks=tuple(blocks),
        n_tuples=int(rids.size),
        n_virtual_pages=len(bounds) - 1,
        pages_per_block=per,
        page_bytes=heap.page_bytes,
        block_bytes=int(block_bytes),
        n_heap_pages=len(runs),
        payload_bytes=ends[-1],
    )


def choose_where_path(
    table: TableInfo,
    predicate: Predicate,
    positions: np.ndarray,
    device,
    index: TableIndex | None,
    access: str,
) -> dict:
    """Pick ``index`` vs ``scan`` fetch for a filtered query; returns the
    decision document stored in ``query.extra["where"]`` and rendered by
    EXPLAIN.

    ``index`` and ``access`` are :func:`plan_where_access`'s decision: any
    non-scan access knows the qualifying pages up front, so the physical
    fetch may position into them directly.  The index path touches only the
    pages holding qualifying tuples — one random positioning per contiguous
    page run — so its cost tracks *selectivity*; the scan path streams the
    whole heap once regardless.
    """
    heap = table.heap
    n_qual = int(len(positions))
    est_index_s, n_qual_pages, runs = _page_fetch_estimate(heap, heap.rids_at(positions), device)
    est_scan_s = device.sequential_time(float(heap.payload_bytes))
    # Strict <: a tie means the "random" fetch degenerated into one
    # sequential pass anyway, so take the plain scan.
    fetch = "index" if access != "scan" and est_index_s < est_scan_s else "scan"
    interval = None
    if index is not None and predicate.interval_for(index.column) is not None:
        lo, hi, lo_incl, hi_incl = predicate.interval_for(index.column)
        interval = {
            "lo": lo,
            "hi": hi,
            "lo_inclusive": lo_incl,
            "hi_inclusive": hi_incl,
        }
    return {
        "predicate": predicate.render(),
        "index": index.name if index is not None else None,
        "index_column": index.column if index is not None else None,
        "interval": interval,
        "n_matching": n_qual,
        "n_tuples": int(table.n_tuples),
        "selectivity": n_qual / max(1, table.n_tuples),
        "n_qualifying_pages": n_qual_pages,
        "n_heap_pages": int(heap.n_pages),
        "page_runs": runs,
        "est_index_s": est_index_s,
        "est_scan_s": est_scan_s,
        "fetch": fetch,
    }
