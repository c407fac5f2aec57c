"""Secondary indexes: single-column B+trees over heap RIDs.

``bptree`` is the in-memory structure DML maintains synchronously;
``idxfile`` is its versioned, CRC-checked on-disk ``.idx`` base with
6-byte packed-RID leaves; ``idxlog`` is the per-statement redo log beside
it (``load_index`` = base + log replay).
"""

from ..rid import RID, RID_BYTES, pack_rids, unpack_rids
from .bptree import DEFAULT_ORDER, BPlusTree
from .idxfile import (
    FORMAT_VERSION,
    MAGIC,
    IndexFileReader,
    IndexFormatError,
    read_index_header,
    save_index,
)
from .idxlog import load_index

__all__ = [
    "RID",
    "RID_BYTES",
    "pack_rids",
    "unpack_rids",
    "BPlusTree",
    "DEFAULT_ORDER",
    "FORMAT_VERSION",
    "MAGIC",
    "IndexFileReader",
    "IndexFormatError",
    "read_index_header",
    "save_index",
    "load_index",
]
