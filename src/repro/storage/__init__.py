"""Storage substrate: tuple codec, pages, heap/block files, buffer pool, I/O models."""

from .blockfile import BlockFileReader, BlockIndexEntry, write_block_file
from .bufferpool import BufferPool
from .codec import (
    TrainingTuple,
    TupleBatch,
    TupleSchema,
    decode_block,
    decode_page,
    decode_tuple,
    encode_tuple,
)
from .columnar import (
    ChunkRef,
    LazyTupleBatch,
    decode_block_columnar,
    encode_block_columnar,
)
from .index import (
    BPlusTree,
    IndexFileReader,
    IndexFormatError,
    read_index_header,
    save_index,
)
from .heapfile import ColumnarMutationError, HeapFile
from .rid import RID, RID_BYTES, pack_rids, unpack_rids
from .iomodel import (
    DEVICE_MODELS,
    HDD,
    HDD_SCALED,
    MEMORY,
    NVM,
    NVM_SCALED,
    SSD,
    SSD_SCALED,
    AccessEvent,
    StripedDevice,
    AccessTrace,
    DeviceModel,
    device_by_name,
    random_vs_sequential_curve,
)
from .page import DEFAULT_PAGE_BYTES, Page
from .retry import (
    ChecksumError,
    ReadExhaustedError,
    RetryableIOError,
    RetryPolicy,
    TransientReadError,
)

__all__ = [
    "RetryPolicy",
    "RetryableIOError",
    "TransientReadError",
    "ChecksumError",
    "ReadExhaustedError",
    "TrainingTuple",
    "TupleBatch",
    "TupleSchema",
    "encode_tuple",
    "decode_tuple",
    "decode_page",
    "decode_block",
    "ChunkRef",
    "LazyTupleBatch",
    "encode_block_columnar",
    "decode_block_columnar",
    "Page",
    "DEFAULT_PAGE_BYTES",
    "HeapFile",
    "ColumnarMutationError",
    "RID",
    "RID_BYTES",
    "pack_rids",
    "unpack_rids",
    "BPlusTree",
    "IndexFileReader",
    "IndexFormatError",
    "read_index_header",
    "save_index",
    "BufferPool",
    "BlockFileReader",
    "BlockIndexEntry",
    "write_block_file",
    "DeviceModel",
    "HDD",
    "HDD_SCALED",
    "SSD",
    "SSD_SCALED",
    "NVM",
    "NVM_SCALED",
    "DEVICE_MODELS",
    "device_by_name",
    "MEMORY",
    "StripedDevice",
    "AccessEvent",
    "AccessTrace",
    "random_vs_sequential_curve",
]
