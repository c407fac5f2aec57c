"""In-memory B+tree over ``(key, RID)`` entries — the secondary-index core.

Single-column, float64 keys, duplicate keys allowed.  Every entry is made
unique by ordering on the *composite* ``(key, rid)`` — the RID is part of
the sort key, PostgreSQL-B-tree style (v12 "heap TID as tiebreaker") — so
inserts land deterministically, deletes remove exactly one physical entry,
and the leaf chain enumerates duplicates in stable heap order.

Leaves are chained for range scans; internal nodes hold composite separator
entries.  Deletion takes the lazy route (no rebalancing): an underfull or
empty leaf simply stays in the chain, which keeps scans correct because
separators remain valid bounds.  The on-disk base is rewritten whole at
every checkpoint, which restores compactness there anyway.

A leaf also keeps its keys and packed RIDs (``page_id << 16 | slot``) as two
numpy arrays, built by the first :meth:`BPlusTree.range_rids` that reaches
it and dropped by any write to it: a range probe returns one ``int64``
array, and writes pay nothing for it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator

import numpy as np

from ..rid import RID, SLOT_BITS

__all__ = ["BPlusTree", "DEFAULT_ORDER"]

#: Max entries per leaf and max children per internal node.
DEFAULT_ORDER = 64

#: Composite probes below/above every real RID (slot ids are uint16,
#: page ids uint32 — these bound the packable range).
_MIN_RID = RID(0, 0)
_MAX_RID = RID(2**32 - 1, 2**16 - 1)


class _Leaf:
    __slots__ = ("entries", "next", "_arrays")

    def __init__(self, entries=None):
        #: Sorted list of ``(key, RID)`` tuples (lexicographic composite).
        self.entries: list[tuple[float, RID]] = entries or []
        self.next: _Leaf | None = None
        #: ``(keys, packed rids)`` of ``entries``; ``None`` until asked for
        #: and after every write to the leaf.
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    is_leaf = True

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            keys = np.array([key for key, _rid in self.entries], dtype=np.float64)
            rids = np.array(
                [(page_id << SLOT_BITS) | slot for _key, (page_id, slot) in self.entries],
                dtype=np.int64,
            )
            self._arrays = keys, rids
        return self._arrays


class _Inner:
    __slots__ = ("separators", "children")

    def __init__(self, separators, children):
        #: ``separators[i]`` is the smallest composite entry reachable under
        #: ``children[i + 1]``; ``len(children) == len(separators) + 1``.
        self.separators: list[tuple[float, RID]] = separators
        self.children: list = children

    is_leaf = False


class BPlusTree:
    """A single-column secondary index mapping key values to heap RIDs."""

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError("order must be at least 4")
        self.order = int(order)
        self._root = _Leaf()
        self._n_entries = 0

    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(cls, pairs, order: int = DEFAULT_ORDER) -> "BPlusTree":
        """Build bottom-up from ``(key, rid)`` pairs (sorted or not).

        The classic bulk path of ``CREATE INDEX``: sort once, pack leaves
        left to right, then stack internal levels — no per-entry descent.
        """
        tree = cls(order=order)
        entries = sorted((float(k), RID(*r)) for k, r in pairs)
        if not entries:
            return tree
        leaves = [
            _Leaf(entries[i : i + order]) for i in range(0, len(entries), order)
        ]
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
        level: list = leaves
        while len(level) > 1:
            parents = []
            for i in range(0, len(level), order):
                group = level[i : i + order]
                parents.append(
                    _Inner([_smallest(child) for child in group[1:]], group)
                )
            level = parents
        tree._root = level[0]
        tree._n_entries = len(entries)
        return tree

    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def height(self) -> int:
        """Levels from root to leaf (a lone leaf is height 1)."""
        h, node = 1, self._root
        while not node.is_leaf:
            h += 1
            node = node.children[0]
        return h

    # ------------------------------------------------------------------
    def insert(self, key: float, rid) -> None:
        entry = (float(key), RID(*rid))
        split = self._insert(self._root, entry)
        if split is not None:
            separator, right = split
            self._root = _Inner([separator], [self._root, right])
        self._n_entries += 1

    def _insert(self, node, entry):
        """Recursive insert; returns ``(separator, new_right)`` on split."""
        if node.is_leaf:
            insort(node.entries, entry)
            node._arrays = None
            if len(node.entries) <= self.order:
                return None
            mid = len(node.entries) // 2
            right = _Leaf(node.entries[mid:])
            node.entries = node.entries[:mid]
            right.next = node.next
            node.next = right
            return right.entries[0], right
        idx = bisect_right(node.separators, entry)
        split = self._insert(node.children[idx], entry)
        if split is None:
            return None
        separator, right = split
        node.separators.insert(idx, separator)
        node.children.insert(idx + 1, right)
        if len(node.children) <= self.order:
            return None
        mid = len(node.children) // 2
        promoted = node.separators[mid - 1]
        right_node = _Inner(node.separators[mid:], node.children[mid:])
        node.separators = node.separators[: mid - 1]
        node.children = node.children[:mid]
        return promoted, right_node

    def delete(self, key: float, rid) -> bool:
        """Remove exactly the entry ``(key, rid)``; returns False if absent.

        Lazy deletion: leaves are never merged, separators never shrink —
        both stay valid bounds, so lookups and scans remain correct.
        """
        entry = (float(key), RID(*rid))
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect_right(node.separators, entry)]
        idx = bisect_left(node.entries, entry)
        if idx < len(node.entries) and node.entries[idx] == entry:
            del node.entries[idx]
            node._arrays = None
            self._n_entries -= 1
            return True
        return False

    # ------------------------------------------------------------------
    def _leaf_for(self, probe) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect_right(node.separators, probe)]
        return node

    def range(
        self,
        lo: float | None = None,
        hi: float | None = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[float, RID]]:
        """Yield ``(key, rid)`` in composite order over ``[lo, hi]``.

        ``None`` bounds are open ends; inclusivity flags give the four
        interval shapes the predicate compiler needs.
        """
        if lo is None:
            leaf, idx = self._leftmost(), 0
        else:
            probe = (float(lo), _MIN_RID if lo_inclusive else _MAX_RID)
            leaf = self._leaf_for(probe)
            idx = (bisect_left if lo_inclusive else bisect_right)(leaf.entries, probe)
        while leaf is not None:
            while idx < len(leaf.entries):
                key, rid = leaf.entries[idx]
                if hi is not None and (key > hi or (key == hi and not hi_inclusive)):
                    return
                yield key, rid
                idx += 1
            leaf, idx = leaf.next, 0

    def range_rids(
        self,
        lo: float | None = None,
        hi: float | None = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> np.ndarray:
        """The packed RIDs (``page_id << 16 | slot``) :meth:`range` yields,
        in the same composite order, as one ``int64`` array.

        Each leaf is bounded with one ``searchsorted`` over its key array
        (keys are non-decreasing along the chain: the composite order sorts
        by key first).
        """
        side_hi = "right" if hi_inclusive else "left"
        if lo is None:
            leaf, first = self._leftmost(), 0
        else:
            leaf = self._leaf_for((float(lo), _MIN_RID if lo_inclusive else _MAX_RID))
            first = int(np.searchsorted(leaf.arrays()[0], lo, "left" if lo_inclusive else "right"))
        runs: list[np.ndarray] = []
        while leaf is not None:
            keys, rids = leaf.arrays()
            end = keys.size if hi is None else int(np.searchsorted(keys, hi, side_hi))
            if first < end:
                runs.append(rids[first:end])
            if end < keys.size:
                break
            leaf, first = leaf.next, 0
        return np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)

    def search(self, key: float) -> list[RID]:
        """All RIDs stored under exactly ``key`` (heap order)."""
        return [rid for _, rid in self.range(key, key)]

    def items(self) -> Iterator[tuple[float, RID]]:
        return self.range()

    def _leftmost(self) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    # ------------------------------------------------------------------
    def nodes(self):
        """Breadth-first ``(node_id, node)`` enumeration; root is node 0.

        The serializer relies on this id assignment: children ids are only
        known once the whole level above is numbered, and BFS gives a stable,
        reader-friendly layout (root first, leaves contiguous at the tail).
        """
        order: list = [self._root]
        seen = 0
        while seen < len(order):
            node = order[seen]
            seen += 1
            if not node.is_leaf:
                order.extend(node.children)
        return list(enumerate(order))

    def check_invariants(self) -> None:
        """Structural audit (tests + recovery verification)."""
        count = sum(1 for _ in self.items())
        if count != self._n_entries:
            raise AssertionError(
                f"leaf chain holds {count} entries, counter says {self._n_entries}"
            )
        flat = list(self.items())
        if flat != sorted(flat):
            raise AssertionError("leaf chain out of composite order")
        self._check_node(self._root, None, None)

    def _check_node(self, node, lo, hi) -> None:
        if node.is_leaf:
            for entry in node.entries:
                if lo is not None and entry < lo:
                    raise AssertionError(f"entry {entry} below separator bound {lo}")
                if hi is not None and entry >= hi:
                    raise AssertionError(f"entry {entry} above separator bound {hi}")
            return
        if len(node.children) != len(node.separators) + 1:
            raise AssertionError("internal node child/separator arity mismatch")
        bounds = [lo, *node.separators, hi]
        for child, (b_lo, b_hi) in zip(node.children, zip(bounds, bounds[1:])):
            self._check_node(child, b_lo, b_hi)


def _smallest(node) -> tuple[float, RID]:
    while not node.is_leaf:
        node = node.children[0]
    return node.entries[0]
