"""A heap's free space map: the lowest page with room in O(log pages).

PostgreSQL keeps a free space map beside each heap so an ``INSERT`` does not
scan the table for a page with room.  This one is a max-tree over each page's
``capacity - live bytes``.  That figure is exactly what
:meth:`~repro.storage.page.Page.can_fit` tests (dead bytes are reclaimable by
compaction), so descending the tree to the leftmost leaf ``>= n`` picks the
page a first-fit scan over ``can_fit`` would pick.
"""

from __future__ import annotations

__all__ = ["FreeSpaceMap"]


class FreeSpaceMap:
    """Max-tree over per-page free bytes; leaf ``i`` is page ``i``."""

    def __init__(self, free: list[int]):
        self._build(free)

    def _build(self, free: list[int]) -> None:
        self.n_pages = len(free)
        size = 1
        while size < self.n_pages:
            size *= 2
        self._size = size
        # Implicit binary tree: node k has children 2k, 2k+1; leaves sit at
        # [size, 2 size).  -1 marks a leaf with no page (never has room).
        tree = [-1] * (2 * size)
        tree[size : size + self.n_pages] = free
        for k in range(size - 1, 0, -1):
            tree[k] = max(tree[2 * k], tree[2 * k + 1])
        self._tree = tree

    def set(self, page_id: int, free: int) -> None:
        """Record page ``page_id``'s free bytes (``page_id == n_pages`` adds a page)."""
        if page_id >= self._size:  # a new page past the leaves: double them
            self._build(self._tree[self._size : self._size + self.n_pages] + [free])
            return
        self.n_pages = max(self.n_pages, page_id + 1)
        tree, k = self._tree, page_id + self._size
        tree[k] = free
        k //= 2
        while k:
            best = max(tree[2 * k], tree[2 * k + 1])
            if tree[k] == best:
                break
            tree[k] = best
            k //= 2

    def first_fit(self, n_bytes: int) -> int | None:
        """The lowest page id with at least ``n_bytes`` free, or ``None``."""
        tree = self._tree
        if tree[1] < n_bytes:
            return None
        k = 1
        while k < self._size:
            k *= 2
            if tree[k] < n_bytes:
                k += 1
        return k - self._size
