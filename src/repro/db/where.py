"""``WHERE`` pushdown for TRAIN/SELECT/DML: positions, paths, partitions.

Three pieces live here:

* :func:`qualifying_positions` / :func:`index_qualifying_positions` —
  resolve a :class:`~repro.db.query.Predicate` to the heap positions that
  satisfy it, either by a vectorised scan of the logical arrays or by a
  B+tree range probe plus residual filter.  Both return the same set, in
  heap order — the physical path only changes what I/O gets *charged*.
  :func:`qualifying_rids` is the same answer as RIDs, for the statements
  that address tuples (UPDATE / DELETE / SELECT): through an index it
  reads only the candidates, so its cost follows the predicate.

* :func:`choose_where_path` — the planner rule.  An index-ordered block
  fetch pays one random positioning per qualifying-page run; a full scan
  pays one sequential pass over the whole heap.  The cheaper estimate (on
  the query's device) wins, so high selectivity flips the plan to the
  scan exactly as in a real optimiser.

* :func:`subset_partition` — the bit-exactness keystone.  ``TRAIN ...
  WHERE`` must visit tuples in the same order CorgiPile would visit a
  *materialised* copy of the filtered subset (``HeapFile.from_dataset``
  over ``dataset.subset(positions)``).  Instead of copying, we replay the
  heap's page-packing rule over the qualifying tuples' payload lengths,
  producing *virtual* pages and blocks that partition the RID list exactly
  as the copy's real pages would.  The block-shuffle permutation then acts
  on virtual block ids, and every fetch resolves through the original
  heap's buffer pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..storage.heapfile import HeapFile
from ..storage.rid import RID
from .catalog import TableIndex, TableInfo
from .errors import UnsupportedPredicateError
from .query import Predicate

__all__ = [
    "VirtualBlock",
    "SubsetPartition",
    "qualifying_positions",
    "index_qualifying_positions",
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


def index_qualifying_positions(
    table: TableInfo, index: TableIndex, predicate: Predicate
) -> np.ndarray:
    """Heap positions satisfying ``predicate``, via a B+tree range probe.

    The index bounds the candidates with ``predicate.interval_for`` on its
    key column; the remaining terms are applied as a residual filter.  The
    result is sorted into heap order so downstream block partitioning sees
    the same sequence as a filtered scan.
    """
    if predicate.interval_for(index.column) is None:
        return qualifying_positions(table, predicate)
    candidates = index_candidates(table, index, predicate)
    if not candidates.size:
        return candidates
    # Residual: the interval covered only the key column; re-check the full
    # predicate (extra terms, != terms) over the candidate rows.
    dataset = table.dataset
    return candidates[predicate.mask(dataset.X, dataset.y)[candidates]]


def qualifying_rids(
    table: TableInfo, predicate: Predicate
) -> tuple[Iterator[RID], TableIndex | None]:
    """RIDs satisfying ``predicate``, streamed in heap order, and the index
    that served them (``None``: full scan of the view).

    An index probe yields RIDs, sorted ``(page_id, slot)`` *is* heap order,
    and the residual is :meth:`Predicate.matches` (``mask``, a row at a
    time) on each candidate as it is reached, read by RID — no directory,
    no view, and a ``LIMIT`` reads only the rows it returns.
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
    interval = predicate.interval_for(index.column)
    if interval is None:
        raise ValueError(f"index {index.name!r} has no usable interval for this predicate")
    lo, hi, lo_incl, hi_incl = interval
    return (
        rid
        for _key, rid in index.tree.range(lo, hi, lo_inclusive=lo_incl, hi_inclusive=hi_incl)
    )


def index_candidates(table: TableInfo, index: TableIndex, predicate: Predicate) -> np.ndarray:
    """Sorted heap positions inside the index's usable interval (pre-residual)."""
    position_of = table.heap.position_of
    return np.asarray(
        sorted(position_of(rid) for rid in _index_range(index, predicate)), dtype=np.int64
    )


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


def _page_fetch_estimate(heap: HeapFile, positions, device) -> tuple[float, int, int]:
    """``(est_s, n_pages, runs)`` of an index-ordered fetch of ``positions``."""
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


def plan_where_access(
    table: TableInfo, predicate: Predicate, device
) -> tuple[np.ndarray, TableIndex | None, dict]:
    """Costed candidate-enumeration choice for a composite predicate.

    Enumerates every access path — full scan, one range probe per usable
    index, and (with two or more usable indexes) their *intersection* —
    charges each by the pages its candidate set touches, and resolves the
    qualifying positions through the cheapest.  All paths return the same
    positions (the full predicate is always re-applied as a residual
    filter); only the charged I/O differs.

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
        cand = candidates[ix.name]
        est, n_pages, runs = _page_fetch_estimate(heap, cand, device)
        paths[f"index:{ix.name}"] = {
            "est_s": est,
            "n_candidates": int(cand.size),
            "n_pages": n_pages,
            "page_runs": runs,
        }
    inter = None
    if len(indexes) >= 2:
        inter = candidates[indexes[0].name]
        for ix in indexes[1:]:
            inter = np.intersect1d(inter, candidates[ix.name], assume_unique=True)
        est, n_pages, runs = _page_fetch_estimate(heap, inter, device)
        paths["intersect"] = {
            "est_s": est,
            "n_candidates": int(inter.size),
            "n_pages": n_pages,
            "page_runs": runs,
            "indexes": [ix.name for ix in indexes],
        }
    # Cheapest wins; an exact tie resolves to the scan (simplest plan, and
    # a tied "random" fetch degenerated into a sequential pass anyway).
    access = min(paths, key=lambda name: (paths[name]["est_s"], name != "scan"))
    index = None
    if access == "scan":
        positions = qualifying_positions(table, predicate)
    elif access == "intersect":
        dataset = table.dataset
        mask = predicate.mask(dataset.X, dataset.y)
        positions = inter[mask[inter]] if inter.size else inter
    else:
        index = next(ix for ix in indexes if f"index:{ix.name}" == access)
        positions = index_qualifying_positions(table, index, predicate)
    doc = {
        "access": access,
        "paths": {
            name: {k: (round(v, 9) if isinstance(v, float) else v) for k, v in p.items()}
            for name, p in paths.items()
        },
    }
    return positions, index, doc


@dataclass(frozen=True)
class VirtualBlock:
    """One virtual block: the qualifying tuples a materialised copy's
    block would hold, addressed by their *original* heap locations."""

    block_id: int
    #: ``(position, rid)`` in visit order (virtual page, then slot order).
    entries: tuple[tuple[int, RID], ...]
    #: Distinct real heap pages the entries live on, in first-touch order.
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
    header), so the stored slot length is the copy's length; compressed
    payloads are re-encoded with the new id to get the exact zlib size.
    Blocks then group virtual pages by the heap's page-run rule.
    """
    if block_bytes < heap.page_bytes:
        raise ValueError("block_bytes must be at least one page")
    pages: list[list[tuple[int, RID]]] = []
    used = 0
    capacity = 0
    total_payload = 0
    for new_id, position in enumerate(positions):
        position = int(position)
        rid = heap.rid_of(position)
        if heap.compress:
            tup = heap.read_rid(rid)
            length = len(heap.encode_payload(new_id, tup.label, tup.features))
        else:
            length = heap.pages[rid.page_id].payload_length(rid.slot)
        if not pages or used + length > capacity:
            pages.append([])
            used = 0
            capacity = max(heap.page_bytes, length)
        pages[-1].append((position, rid))
        used += length
        total_payload += length

    per = max(1, int(block_bytes) // heap.page_bytes)
    blocks: list[VirtualBlock] = []
    for block_id in range(0, -(-len(pages) // per) if pages else 0):
        entries: list[tuple[int, RID]] = []
        for vpage in pages[block_id * per : (block_id + 1) * per]:
            entries.extend(vpage)
        page_ids: list[int] = []
        seen: set[int] = set()
        for _position, rid in entries:
            if rid.page_id not in seen:
                seen.add(rid.page_id)
                page_ids.append(rid.page_id)
        blocks.append(
            VirtualBlock(
                block_id=block_id, entries=tuple(entries), page_ids=tuple(page_ids)
            )
        )
    all_pages = {rid.page_id for block in blocks for _p, rid in block.entries}
    return SubsetPartition(
        blocks=tuple(blocks),
        n_tuples=int(len(positions)),
        n_virtual_pages=len(pages),
        pages_per_block=per,
        page_bytes=heap.page_bytes,
        block_bytes=int(block_bytes),
        n_heap_pages=len(all_pages),
        payload_bytes=total_payload,
    )


def choose_where_path(
    table: TableInfo,
    predicate: Predicate,
    positions: np.ndarray,
    device,
    index: TableIndex | None = None,
    access: str | None = None,
) -> dict:
    """Pick ``index`` vs ``scan`` fetch for a filtered query; returns the
    decision document stored in ``query.extra["where"]`` and rendered by
    EXPLAIN.

    The index path touches only the pages holding qualifying tuples — one
    random positioning per contiguous page run — so its cost tracks
    *selectivity*; the scan path streams the whole heap once regardless.
    """
    heap = table.heap
    n_qual = int(len(positions))
    qual_pages = sorted({heap.rid_of(int(p)).page_id for p in positions})
    runs = 0
    prev = None
    for page_id in qual_pages:
        if prev is None or page_id != prev + 1:
            runs += 1
        prev = page_id
    avg_page_bytes = heap.payload_bytes / max(1, heap.n_pages)
    est_index_s = device.random_time(
        avg_page_bytes * len(qual_pages) / max(1, runs), runs
    )
    est_scan_s = device.sequential_time(float(heap.payload_bytes))
    # With a plan_where_access decision the candidate enumeration is
    # settled: any non-scan access knows the qualifying pages up front, so
    # the physical fetch may position into them directly.
    if access is not None:
        usable_index = access != "scan"
    else:
        usable_index = (
            index is not None and predicate.interval_for(index.column) is not None
        )
    # Strict <: a tie means the "random" fetch degenerated into one
    # sequential pass anyway, so take the plain scan.
    fetch = "index" if usable_index and est_index_s < est_scan_s else "scan"
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
        "n_qualifying_pages": len(qual_pages),
        "n_heap_pages": int(heap.n_pages),
        "page_runs": runs,
        "est_index_s": est_index_s,
        "est_scan_s": est_scan_s,
        "fetch": fetch,
    }
