"""On-disk persistence for heap files.

The engine's :class:`~repro.storage.heapfile.HeapFile` lives in memory; this
module gives it a real on-disk form so tables survive process restarts and
page reads hit an actual file:

* :func:`save_heap` writes the page images (padded to the page capacity,
  like PostgreSQL data files) plus a JSON header recording the schema,
  page capacity, and each page's slot directory;
* :func:`load_heap` maps the file back into a fully functional
  :class:`HeapFile` (pages re-split into their original tuple payloads).

Round-tripping is byte-exact: every tuple payload, page boundary, and
compression flag is preserved, so block layouts and the operators behave
identically on the reloaded table.
"""

from __future__ import annotations

import json
from pathlib import Path

from .codec import TupleSchema
from .heapfile import HeapFile
from .page import Page
from .rid import RID

__all__ = ["save_heap", "load_heap"]

_MAGIC = b"CORGIHEAP1"


def save_heap(heap: HeapFile, path: str | Path) -> Path:
    """Persist ``heap`` to ``path`` (header + padded page images)."""
    path = Path(path)
    heap.flush()  # columnar heaps: push buffered rows into their final page
    header = {
        "n_features": heap.schema.n_features,
        "sparse": heap.schema.sparse,
        "page_bytes": heap.page_bytes,
        "compress": heap.compress,
        "layout": heap.layout,
        "pages": [
            {
                "capacity": page.capacity,
                # Dead slots render as length 0 (Snippet-2 style line
                # pointers) so RIDs survive a save/load round trip; their
                # payload bytes are dropped, i.e. saving compacts the page.
                "slots": page.slot_lengths(),
            }
            for page in heap.pages
        ],
    }
    header_bytes = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        for page in heap.pages:
            raw = page.raw()
            f.write(raw)
            f.write(b"\x00" * (page.capacity - len(raw)))  # pad like a data file
    return path


def load_heap(path: str | Path) -> HeapFile:
    """Reload a heap file written by :func:`save_heap`."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a heap file (bad magic {magic!r})")
        header_len = int.from_bytes(f.read(8), "little")
        header = json.loads(f.read(header_len).decode())
        schema = TupleSchema(header["n_features"], sparse=header["sparse"])
        heap = HeapFile(
            schema,
            page_bytes=header["page_bytes"],
            compress=header["compress"],
            layout=header.get("layout", "row"),  # pre-columnar files are row
        )
        for page_id, page_info in enumerate(header["pages"]):
            image = f.read(page_info["capacity"])
            if len(image) != page_info["capacity"]:
                raise ValueError(f"{path}: truncated page {page_id}")
            payloads: list[bytes | None] = []
            offset = 0
            for slot_len in page_info["slots"]:
                if slot_len == 0:
                    payloads.append(None)  # dead slot: keep the id, no bytes
                else:
                    payloads.append(image[offset : offset + slot_len])
                    offset += slot_len
            heap.pages.append(Page.from_slots(page_id, page_info["capacity"], payloads))
        # Rebuild the position -> (page, slot) directory.  Row pages hold one
        # tuple per slot; a columnar page is one payload whose header says
        # how many rows it packs (``slot`` is then the row index).
        if heap.layout == "columnar":
            from .columnar import read_columnar_header

            for page in heap.pages:
                (payload,) = page.tuple_payloads()
                n_rows = read_columnar_header(payload)[0]
                for row in range(n_rows):
                    heap._refs.append(RID(page.page_id, row))
        else:
            for page in heap.pages:
                for slot in page.live_slots():
                    heap._refs.append(RID(page.page_id, slot))
        heap._n_live = len(heap._refs)
    return heap
