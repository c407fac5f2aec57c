"""Catalog: named tables backed by heap files, plus their secondary indexes.

``CREATE TABLE``-ing a dataset materialises it into a
:class:`~repro.storage.heapfile.HeapFile` (pages of encoded tuples) and
keeps the logical dataset alongside for end-of-epoch evaluation.  Average
tuple size and values-per-tuple are computed once at load time; the timing
model uses them for I/O and compute charging.

Tables are mutable: :meth:`TableInfo.insert_rows` / :meth:`delete_rids` /
:meth:`update_rids` go through the heap's slot-level DML, *synchronously*
maintain every B+tree index, invalidate the buffer pool's cached decoded
batches for each rewritten page (the PR-3 retry-invalidation contract — a
cached batch must never outlive the bytes it decoded), and refresh the
logical dataset so evaluation and planning see the post-DML table.  With a
``data_dir`` configured, every index rewrite lands durably in its ``.idx``
file before the statement returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..data.dataset import Dataset
from ..data.sparse import SparseMatrix, SparseRow
from ..storage.bufferpool import BufferPool
from ..storage.heapfile import HeapFile
from ..storage.index import BPlusTree, save_index
from ..storage.page import DEFAULT_PAGE_BYTES
from ..storage.rid import RID
from .errors import UnknownIndexError, UnknownTableError, UnsupportedLayoutError
from .query import column_value

__all__ = ["TableIndex", "TableInfo", "Catalog"]


@dataclass
class TableIndex:
    """One secondary index: a B+tree over ``column``, optionally persisted."""

    name: str
    column: str
    tree: BPlusTree
    #: ``.idx`` location; ``None`` keeps the index memory-only.
    path: Path | None = None

    def persist(self) -> None:
        if self.path is not None:
            save_index(self.tree, self.column, self.path)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "column": self.column,
            "n_entries": self.tree.n_entries,
            "height": self.tree.height,
            "path": None if self.path is None else str(self.path),
        }


@dataclass
class TableInfo:
    """One catalog entry."""

    name: str
    dataset: Dataset
    heap: HeapFile
    pool: BufferPool
    indexes: dict[str, TableIndex] = field(default_factory=dict)
    #: Next tuple id to hand out on INSERT (ids are unique, never reused).
    next_tuple_id: int = 0

    @property
    def n_tuples(self) -> int:
        return self.dataset.n_tuples

    @property
    def tuple_bytes(self) -> float:
        """Average on-disk bytes per tuple (payload, not page padding)."""
        return self.heap.payload_bytes / max(1, self.heap.n_tuples)

    @property
    def values_per_tuple(self) -> float:
        """Average feature values per tuple (nnz for sparse, d for dense)."""
        if isinstance(self.dataset.X, SparseMatrix):
            return self.dataset.X.nnz / max(1, self.dataset.n_tuples)
        return float(self.dataset.n_features)

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

    def insert_rows(self, rows) -> list[RID]:
        """Insert ``(label, features)`` rows; returns their RIDs.

        Features are dense arrays or :class:`SparseRow`\\ s matching the
        table schema.  Every index gains an entry per row before the call
        returns (synchronous maintenance), and the pages written are evicted
        from the buffer pool.
        """
        self._require_row_layout("INSERT")
        rids: list[RID] = []
        for label, features in rows:
            tuple_id = self.next_tuple_id
            self.next_tuple_id += 1
            rid = self.heap.insert(tuple_id, float(label), features)
            self.pool.invalidate(rid.page_id)
            for index in self.indexes.values():
                index.tree.insert(column_value(index.column, label, features), rid)
            rids.append(rid)
        self._after_dml()
        return rids

    def delete_rids(self, rids) -> int:
        """Delete the tuples at ``rids``; returns the count removed."""
        self._require_row_layout("DELETE")
        doomed = [
            (rid, self.heap.read_tuple(self.heap.position_of(rid))) for rid in rids
        ]
        for rid, tup in doomed:
            self.heap.delete(rid)
            self.pool.invalidate(rid.page_id)
            for index in self.indexes.values():
                index.tree.delete(
                    column_value(index.column, tup.label, tup.features), rid
                )
        self._after_dml()
        return len(doomed)

    def update_rids(self, rids, assignments) -> list[tuple[RID, RID]]:
        """Apply ``(column, value)`` assignments to the tuples at ``rids``.

        Returns ``(old_rid, new_rid)`` pairs — in-place updates keep the
        RID; a version too big for its page moves (delete + insert), and
        every index entry follows the key/location change.
        """
        self._require_row_layout("UPDATE")
        victims = [
            (rid, self.heap.read_tuple(self.heap.position_of(rid))) for rid in rids
        ]
        moved: list[tuple[RID, RID]] = []
        for rid, tup in victims:
            label, features = float(tup.label), tup.features
            for column, value in assignments:
                if column == "label":
                    label = float(value)
                else:
                    features = _assign_feature(features, int(column[1:]), float(value))
            new_rid = self.heap.update(rid, tup.tuple_id, label, features)
            self.pool.invalidate(rid.page_id)
            if new_rid.page_id != rid.page_id:
                self.pool.invalidate(new_rid.page_id)
            for index in self.indexes.values():
                old_key = column_value(index.column, tup.label, tup.features)
                new_key = column_value(index.column, label, features)
                if old_key != new_key or new_rid != rid:
                    index.tree.delete(old_key, rid)
                    index.tree.insert(new_key, new_rid)
            moved.append((rid, new_rid))
        self._after_dml()
        return moved

    def _after_dml(self) -> None:
        """Post-statement bookkeeping: dataset refresh + index durability."""
        self.dataset = _dataset_from_heap(self.heap, self.dataset)
        for index in self.indexes.values():
            index.persist()

    # ------------------------------------------------------------------
    def build_index(self, name: str, column: str, path: Path | None = None) -> TableIndex:
        """``CREATE INDEX``: bulk-load a B+tree from one heap scan."""
        if name in self.indexes:
            raise ValueError(f"index {name!r} already exists on table {self.name!r}")
        pairs = []
        for position, tup in enumerate(self.heap.scan()):
            pairs.append(
                (
                    column_value(column, tup.label, tup.features),
                    self.heap.rid_of(position),
                )
            )
        index = TableIndex(
            name=name, column=column, tree=BPlusTree.bulk_load(pairs), path=path
        )
        index.persist()
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise UnknownIndexError(f"no index {name!r} on table {self.name!r}")
        index = self.indexes.pop(name)
        if index.path is not None:
            Path(index.path).unlink(missing_ok=True)

    def index_on(self, column: str) -> TableIndex | None:
        """The (first) index whose key is ``column``, if any."""
        for index in self.indexes.values():
            if index.column == column:
                return index
        return None

    def verify_indexes(self) -> None:
        """Audit every index against a fresh heap scan (tests + recovery)."""
        expected = {}
        for position, tup in enumerate(self.heap.scan()):
            rid = self.heap.rid_of(position)
            for index in self.indexes.values():
                expected.setdefault(index.name, set()).add(
                    (column_value(index.column, tup.label, tup.features), rid)
                )
        for index in self.indexes.values():
            index.tree.check_invariants()
            got = set(index.tree.items())
            want = expected.get(index.name, set())
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


def _dataset_from_heap(heap: HeapFile, template: Dataset) -> Dataset:
    """Rebuild the logical dataset from a heap scan (post-DML refresh)."""
    labels: list[float] = []
    if heap.schema.sparse:
        rows: list[SparseRow] = []
        for tup in heap.scan():
            labels.append(tup.label)
            rows.append(tup.features)
        X = SparseMatrix.from_rows(rows, heap.schema.n_features)
    else:
        dense: list[np.ndarray] = []
        for tup in heap.scan():
            labels.append(tup.label)
            dense.append(np.asarray(tup.features, dtype=np.float64))
        X = (
            np.stack(dense)
            if dense
            else np.empty((0, heap.schema.n_features), dtype=np.float64)
        )
    return Dataset(
        X=X,
        y=np.asarray(labels, dtype=np.float64),
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
        del self._tables[name]

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
