"""Catalog: named tables backed by heap files, plus their secondary indexes.

``CREATE TABLE``-ing a dataset materialises it into a
:class:`~repro.storage.heapfile.HeapFile` (pages of encoded tuples).  The
heap is the table; :attr:`TableInfo.dataset` is a *derived* view of it
(arrays in heap order, for evaluation, prediction and full-scan predicates)
that readers build on demand.

A write costs what the statement touches: :meth:`TableInfo.insert_rows` /
:meth:`delete_rids` / :meth:`update_rids` check every row and assignment
first (a statement that cannot finish changes nothing), then go through the
heap's slot-level DML, synchronously maintain every B+tree and mark the view
stale.  A slot write bumps its page's ``version``, which the buffer pool
checks on every access, so a cached batch never outlives the bytes it
decoded without the writer touching the pool.  The next reader of the view
rebuilds it once, a writer never does.  With a ``data_dir`` configured each
index makes the statement's ``(insert | delete, key, rid)`` ops durable
before the statement returns, as one fsynced frame of the redo log beside
its ``.idx`` base (:mod:`repro.storage.index.idxlog`); the base is rewritten
only by ``CREATE INDEX`` and by a checkpoint, when the log outgrows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .. import obs
from ..data.dataset import Dataset
from ..data.sparse import SparseRow
from ..storage.bufferpool import BufferPool
from ..storage.codec import TupleBatch
from ..storage.heapfile import HeapFile
from ..storage.index import BPlusTree, idxlog
from ..storage.page import DEFAULT_PAGE_BYTES
from ..storage.rid import RID
from .errors import EngineError, UnknownIndexError, UnknownTableError, UnsupportedLayoutError
from .query import column_value, column_values

__all__ = ["TableIndex", "TableInfo", "Catalog"]


@dataclass
class TableIndex:
    """One secondary index: a B+tree over ``column``, optionally persisted."""

    name: str
    column: str
    tree: BPlusTree
    #: ``.idx`` base (its log sits beside it); ``None``: memory-only index.
    path: Path | None = None
    #: LSN of the last durable frame — the base's own while the log is empty.
    lsn: int = 0
    #: Ops of the statement in flight, not yet durable.
    _ops: list = field(default_factory=list, repr=False)
    _base_bytes: int = 0
    _log_bytes: int = 0

    def insert(self, key: float, rid: RID) -> None:
        self.tree.insert(key, rid)
        self._ops.append((idxlog.INSERT, key, rid))

    def delete(self, key: float, rid: RID) -> None:
        self.tree.delete(key, rid)
        self._ops.append((idxlog.DELETE, key, rid))

    def persist(self) -> None:
        """Make the statement's ops durable: one log frame, one fsync (none
        for a statement that moved no key).  A log that has outgrown the base
        is checkpointed, so base rewrites amortise to O(frame)."""
        ops, self._ops = self._ops, []
        if self.path is None or not ops:
            return
        self._log_bytes += idxlog.append_frame(self.path, self.lsn + 1, ops)
        self.lsn += 1
        if self._log_bytes > self._base_bytes:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Rewrite the base at the current LSN and empty the log."""
        self._base_bytes = idxlog.checkpoint(self.tree, self.column, self.path, self.lsn)
        self._log_bytes = 0

    def unlink(self) -> None:
        """Remove the base and its log (``DROP INDEX`` / ``DROP TABLE``)."""
        if self.path is not None:
            Path(self.path).unlink(missing_ok=True)
            idxlog.log_path(self.path).unlink(missing_ok=True)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "column": self.column,
            "n_entries": self.tree.n_entries,
            "height": self.tree.height,
            "path": None if self.path is None else str(self.path),
        }


class TableInfo:
    """One catalog entry."""

    def __init__(
        self,
        name: str,
        dataset: Dataset,
        heap: HeapFile,
        pool: BufferPool,
        indexes: dict[str, TableIndex] | None = None,
        next_tuple_id: int = 0,
    ):
        self.name = name
        self.heap = heap
        self.pool = pool
        self.indexes = {} if indexes is None else indexes
        #: Next tuple id to hand out on INSERT (ids are unique, never reused).
        self.next_tuple_id = next_tuple_id
        # The view as last materialised: DML only marks it stale, and even
        # stale it is the template (name, task, metadata) of the next one.
        self._view = dataset
        self._view_stale = False

    @property
    def dataset(self) -> Dataset:
        """The table's rows as arrays, in heap order; rebuilt from the heap's
        page batches by the first reader after a write."""
        if self._view_stale:
            obs.inc("db.catalog.view_rebuilds")
            self._view = _dataset_from_heap(self.heap, self._view)
            self._view_stale = False
        return self._view

    @property
    def n_tuples(self) -> int:
        return self.heap.n_tuples

    @property
    def n_features(self) -> int:
        return self.heap.schema.n_features

    @property
    def is_sparse(self) -> bool:
        return self.heap.schema.sparse

    @property
    def task(self) -> str:
        return self._view.task

    @property
    def tuple_bytes(self) -> float:
        """Average on-disk bytes per tuple (payload, not page padding)."""
        return self.heap.payload_bytes / max(1, self.heap.n_tuples)

    @property
    def values_per_tuple(self) -> float:
        """Average feature values per tuple (nnz for sparse, d for dense)."""
        if self.is_sparse:
            return self.dataset.X.nnz / max(1, self.n_tuples)
        return float(self.n_features)

    @property
    def table_bytes(self) -> int:
        return self.heap.total_bytes

    # ------------------------------------------------------------------
    # DML
    def _require_row_layout(self, statement: str) -> None:
        if self.heap.layout != "row":
            raise UnsupportedLayoutError(
                f"{statement} on table {self.name!r}: the {self.heap.layout!r} "
                "layout is immutable; DML needs a row-layout table"
            )

    def _row_features(self, features):
        """``features`` as the schema's row type; ``ValueError`` if it is not one."""
        d = self.n_features
        if self.is_sparse:
            if not isinstance(features, SparseRow) or features.n_features != d:
                raise ValueError(f"table {self.name!r} stores {d}-feature SparseRows")
            return features
        dense = np.asarray(features, dtype=np.float64)
        if dense.shape != (d,):
            raise ValueError(f"table {self.name!r} stores {d}-feature rows, got {dense.shape}")
        return dense

    def insert_rows(self, rows) -> list[RID]:
        """Insert ``(label, features)`` rows; returns their RIDs.

        Features are dense arrays or :class:`SparseRow`\\ s matching the
        table schema.  Every index gains an entry per row before the call
        returns (synchronous maintenance).
        """
        self._require_row_layout("INSERT")
        rows = [(float(label), self._row_features(features)) for label, features in rows]
        rids: list[RID] = []
        for label, features in rows:
            tuple_id = self.next_tuple_id
            self.next_tuple_id += 1
            rid = self.heap.insert(tuple_id, label, features)
            for index in self.indexes.values():
                index.insert(column_value(index.column, label, features), rid)
            rids.append(rid)
        self._commit()
        return rids

    def delete_rids(self, rids) -> int:
        """Delete the tuples at ``rids``; returns the count removed."""
        self._require_row_layout("DELETE")
        doomed = [(rid, self.heap.read_rid(rid)) for rid in rids]
        for rid, tup in doomed:
            self.heap.delete(rid)
            for index in self.indexes.values():
                index.delete(column_value(index.column, tup.label, tup.features), rid)
        self._commit()
        return len(doomed)

    def update_rids(self, rids, assignments) -> list[tuple[RID, RID]]:
        """Apply ``(column, value)`` assignments to the tuples at ``rids``.

        Returns ``(old_rid, new_rid)`` pairs — in-place updates keep the
        RID; a version too big for its page moves (delete + insert), and
        every index entry follows the key/location change.
        """
        self._require_row_layout("UPDATE")
        for column, _value in assignments:
            if column != "label" and int(column[1:]) >= self.n_features:
                raise EngineError(
                    f"column {column!r} out of range: table has {self.n_features} features"
                )
        versions = []
        for rid in rids:
            tup = self.heap.read_rid(rid)
            label, features = float(tup.label), tup.features
            for column, value in assignments:
                if column == "label":
                    label = float(value)
                else:
                    features = _assign_feature(features, int(column[1:]), float(value))
            versions.append((rid, tup, label, features))
        moved: list[tuple[RID, RID]] = []
        for rid, tup, label, features in versions:
            new_rid = self.heap.update(rid, tup.tuple_id, label, features)
            for index in self.indexes.values():
                old_key = column_value(index.column, tup.label, tup.features)
                new_key = column_value(index.column, label, features)
                if old_key != new_key or new_rid != rid:
                    index.delete(old_key, rid)
                    index.insert(new_key, new_rid)
            moved.append((rid, new_rid))
        self._commit()
        return moved

    def _commit(self) -> None:
        """End of a write statement: the view goes stale, the index ops durable."""
        self._view_stale = True
        for index in self.indexes.values():
            index.persist()

    # ------------------------------------------------------------------
    def build_index(self, name: str, column: str, path: Path | None = None) -> TableIndex:
        """``CREATE INDEX``: bulk-load a B+tree from one pass over the pages."""
        if name in self.indexes:
            raise ValueError(f"index {name!r} already exists on table {self.name!r}")
        pairs = _keyed_rids(self.heap, [column])[column]
        index = TableIndex(
            name=name, column=column, tree=BPlusTree.bulk_load(pairs), path=path
        )
        if path is not None:
            # Leftover files of an earlier table: start above every LSN they
            # used, so a frame that outlives this base can only be a no-op.
            index.lsn = idxlog.last_lsn(path)
            index.checkpoint()
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise UnknownIndexError(f"no index {name!r} on table {self.name!r}")
        self.indexes.pop(name).unlink()

    def index_on(self, column: str) -> TableIndex | None:
        """The (first) index whose key is ``column``, if any."""
        for index in self.indexes.values():
            if index.column == column:
                return index
        return None

    def verify_indexes(self) -> None:
        """Audit every index against a fresh pass over the pages (tests + recovery)."""
        expected = _keyed_rids(self.heap, {index.column for index in self.indexes.values()})
        for index in self.indexes.values():
            index.tree.check_invariants()
            got = set(index.tree.items())
            want = set(expected[index.column])
            if got != want:
                missing = want - got
                stray = got - want
                raise AssertionError(
                    f"index {index.name!r} out of sync with heap: "
                    f"{len(missing)} missing, {len(stray)} stray entries"
                )


def _assign_feature(features, k: int, value: float):
    """A copy of ``features`` with feature ``k`` set to ``value``."""
    if isinstance(features, SparseRow):
        dense_positions = features.indices
        pos = int(np.searchsorted(dense_positions, k))
        present = pos < dense_positions.size and dense_positions[pos] == k
        if value == 0.0:
            if not present:
                return features
            return SparseRow(
                np.delete(features.indices, pos),
                np.delete(features.values, pos),
                features.n_features,
            )
        if present:
            values = features.values.copy()
            values[pos] = value
            return SparseRow(features.indices.copy(), values, features.n_features)
        return SparseRow(
            np.insert(features.indices, pos, k),
            np.insert(features.values, pos, value),
            features.n_features,
        )
    out = np.asarray(features, dtype=np.float64).copy()
    out[k] = value
    return out


def _page_batches(heap: HeapFile) -> Iterator[TupleBatch]:
    """Every page in heap order, one bulk ``read_page_batch`` each — straight
    off the heap, never through the pool: pool hits and misses drive the
    simulated clock, and ``_run_heap`` cold-starts the pool just before it
    reads the view."""
    heap.flush()
    return (heap.read_page_batch(page_id) for page_id in range(heap.n_pages))


def _keyed_rids(heap: HeapFile, columns) -> dict[str, list[tuple[float, RID]]]:
    """``column -> [(key, rid), ...]`` over every live row, in heap order."""
    out: dict[str, list[tuple[float, RID]]] = {column: [] for column in columns}
    position = 0
    for batch in _page_batches(heap):
        rids = [heap.rid_of(position + row) for row in range(len(batch))]
        position += len(rids)
        X = batch.features_matrix()
        for column, pairs in out.items():
            pairs.extend(zip(column_values(column, X, batch.labels).tolist(), rids))
    return out


def _dataset_from_heap(heap: HeapFile, template: Dataset) -> Dataset:
    """The logical dataset of the heap's pages, in heap order (the lazy view)."""
    batches = list(_page_batches(heap))
    batch = TupleBatch.concat(batches) if batches else TupleBatch.from_tuples([], heap.schema)
    return Dataset(
        X=batch.features_matrix(),
        y=batch.labels,
        name=template.name,
        task=template.task,
        metadata=template.metadata,
    )


class Catalog:
    """Name → table mapping with heap materialisation."""

    def __init__(
        self,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        pool_pages: int = 4096,
        data_dir: str | Path | None = None,
    ):
        self.page_bytes = int(page_bytes)
        self.pool_pages = int(pool_pages)
        self.data_dir = None if data_dir is None else Path(data_dir)
        self._tables: dict[str, TableInfo] = {}

    def create_table(
        self, name: str, dataset: Dataset, compress: bool = False, layout: str = "row"
    ) -> TableInfo:
        """Materialise ``dataset`` as a heap table named ``name``.

        ``layout="columnar"`` stores pages as per-column chunks; reads come
        back lazy, so projections decode only the columns they touch.
        """
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        info = self._tables[name] = self.build_table(name, dataset, compress, layout)
        return info

    def build_table(
        self, name: str, dataset: Dataset, compress: bool = False, layout: str = "row"
    ) -> TableInfo:
        """``dataset`` as a heap of this catalog's geometry, *not* registered —
        what :meth:`create_table` registers, and what a statement-scoped copy is."""
        heap = HeapFile.from_dataset(
            dataset, page_bytes=self.page_bytes, compress=compress, layout=layout
        )
        return TableInfo(
            name=name,
            dataset=dataset,
            heap=heap,
            pool=BufferPool(heap, capacity_pages=self.pool_pages),
            next_tuple_id=dataset.n_tuples,
        )

    def create_index(self, table: str, name: str, column: str) -> TableIndex:
        """``CREATE INDEX name ON table(column)`` with optional persistence."""
        info = self.get(table)
        path = None
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
            path = self.data_dir / f"{table}.{name}.idx"
        return info.build_index(name, column, path=path)

    def replace_table(self, name: str, info: TableInfo) -> None:
        """Swap an existing entry (e.g. for fault-injecting storage wrappers)."""
        if name not in self._tables:
            raise UnknownTableError(name)
        self._tables[name] = info

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise UnknownTableError(name)
        for index in self._tables.pop(name).indexes.values():
            index.unlink()

    def get(self, name: str) -> TableInfo:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> list[str]:
        return list(self._tables)

    def labels(self, name: str) -> np.ndarray:
        return np.asarray(self.get(name).dataset.y)
