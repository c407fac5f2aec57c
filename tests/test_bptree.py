"""B+tree unit + property tests, and the ``.idx`` file round trip."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.index import (
    FORMAT_VERSION,
    MAGIC,
    BPlusTree,
    IndexFileReader,
    IndexFormatError,
    read_index_header,
    save_index,
)
from repro.storage.rid import RID, RID_BYTES, pack_rids, unpack_rids


def _pairs(n: int, *, stride: int = 1):
    """``n`` (key, RID) pairs with deterministic distinct addresses."""
    return [(float(i * stride), RID(i // 50, i % 50)) for i in range(n)]


class TestBPlusTree:
    def test_bulk_load_round_trip(self):
        pairs = _pairs(500)
        tree = BPlusTree.bulk_load(pairs, order=8)
        tree.check_invariants()
        assert tree.n_entries == 500
        assert list(tree.items()) == sorted(pairs)
        assert tree.height >= 2  # 500 entries at order 8 must actually split

    def test_insert_matches_bulk_load(self):
        pairs = _pairs(300)
        incremental = BPlusTree(order=6)
        for key, rid in reversed(pairs):
            incremental.insert(key, rid)
        incremental.check_invariants()
        assert list(incremental.items()) == list(
            BPlusTree.bulk_load(pairs, order=6).items()
        )

    def test_duplicate_keys_keep_distinct_rids(self):
        tree = BPlusTree(order=4)
        rids = [RID(p, 0) for p in range(20)]
        for rid in rids:
            tree.insert(1.5, rid)
        tree.check_invariants()
        assert sorted(tree.search(1.5)) == sorted(rids)
        assert tree.delete(1.5, rids[7])
        assert rids[7] not in tree.search(1.5)
        assert len(tree.search(1.5)) == 19

    def test_range_bounds(self):
        tree = BPlusTree.bulk_load(_pairs(100), order=8)
        keys = [k for k, _ in tree.range(10.0, 20.0)]
        assert keys == [float(k) for k in range(10, 21)]
        keys = [k for k, _ in tree.range(10.0, 20.0, lo_inclusive=False, hi_inclusive=False)]
        assert keys == [float(k) for k in range(11, 20)]
        assert [k for k, _ in tree.range(None, 3.0)] == [0.0, 1.0, 2.0, 3.0]
        assert [k for k, _ in tree.range(97.0, None)] == [97.0, 98.0, 99.0]
        assert list(tree.range(50.5, 50.9)) == []

    def test_delete_missing_returns_false(self):
        tree = BPlusTree.bulk_load(_pairs(10), order=4)
        assert not tree.delete(4.0, RID(99, 99))
        assert not tree.delete(123.0, RID(0, 0))
        assert tree.n_entries == 10

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)),
            min_size=1,
            max_size=120,
        )
    )
    def test_matches_reference_under_random_ops(self, ops):
        """Insert/delete streams agree with a plain sorted-list reference."""
        tree = BPlusTree(order=4)
        reference: list[tuple[float, RID]] = []
        for i, (is_insert, key) in enumerate(ops):
            rid = RID(0, i)
            if is_insert:
                tree.insert(float(key), rid)
                reference.append((float(key), rid))
            else:
                matches = [r for k, r in reference if k == float(key)]
                expected = bool(matches)
                victim = min(matches) if matches else RID(0, 0)
                assert tree.delete(float(key), victim) == expected
                if expected:
                    reference.remove((float(key), victim))
            tree.check_invariants()
        assert list(tree.items()) == sorted(reference)
        assert tree.n_entries == len(reference)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=80))
    def test_range_is_sorted_slice(self, keys):
        pairs = [(float(k), RID(0, i)) for i, k in enumerate(keys)]
        tree = BPlusTree.bulk_load(pairs, order=4)
        got = list(tree.range(-10.0, 10.0))
        assert got == sorted(p for p in pairs if -10.0 <= p[0] <= 10.0)


class TestRidPacking:
    def test_round_trip(self):
        rids = [RID(0, 0), RID(1, 65535), RID(2**32 - 1, 7)]
        packed = pack_rids(rids)
        assert len(packed) == RID_BYTES * len(rids)
        assert unpack_rids(packed, len(rids)) == rids

    def test_single_rid_pack(self):
        rid = RID(123456, 42)
        assert RID.unpack(rid.pack()) == rid


class TestIdxFile:
    def test_save_load_round_trip(self, tmp_path):
        pairs = _pairs(400, stride=3)
        tree = BPlusTree.bulk_load(pairs, order=8)
        path = save_index(tree, "f2", tmp_path / "t.f2.idx")
        header = read_index_header(path)
        assert header["column"] == "f2"
        assert header["n_entries"] == 400
        assert header["version"] == FORMAT_VERSION
        reader = IndexFileReader(path)
        assert list(reader.items()) == sorted(pairs)
        assert reader.validate()["entries"] == 400
        rebuilt = reader.to_tree()
        rebuilt.check_invariants()
        assert list(rebuilt.items()) == sorted(pairs)

    def test_range_rids_match_tree(self, tmp_path):
        pairs = _pairs(200)
        tree = BPlusTree.bulk_load(pairs, order=8)
        path = save_index(tree, "f0", tmp_path / "t.idx")
        reader = IndexFileReader(path)
        want = list(tree.range(40.0, 90.0))
        assert list(reader.range_rids(40.0, 90.0)) == want
        assert list(reader.range_rids(40.0, 90.0, lo_inclusive=False)) == want[1:]

    def test_bad_magic_rejected(self, tmp_path):
        path = save_index(BPlusTree.bulk_load(_pairs(20)), "f0", tmp_path / "t.idx")
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError):
            read_index_header(path)

    def test_future_version_rejected(self, tmp_path):
        path = save_index(BPlusTree.bulk_load(_pairs(20)), "f0", tmp_path / "t.idx")
        blob = bytearray(path.read_bytes())
        # Preamble: 4s magic + >H version; bump the version field.
        struct.pack_into(">H", blob, len(MAGIC), FORMAT_VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError):
            read_index_header(path)

    def test_other_version_message_names_the_rebuild(self, tmp_path):
        """No index migrator exists: the refusal points at the documented
        way off an old version (``docs/storage_format.md`` §5.5)."""
        path = save_index(BPlusTree.bulk_load(_pairs(20)), "f0", tmp_path / "t.idx")
        blob = bytearray(path.read_bytes())
        struct.pack_into(">H", blob, len(MAGIC), 2)
        path.write_bytes(bytes(blob))
        for read in (read_index_header, IndexFileReader):
            with pytest.raises(IndexFormatError, match="format version 2") as excinfo:
                read(path)
            message = str(excinfo.value)
            assert "DROP INDEX / CREATE INDEX" in message
            assert "migrat" not in message

    def test_corrupt_header_crc_rejected(self, tmp_path):
        path = save_index(BPlusTree.bulk_load(_pairs(20)), "f0", tmp_path / "t.idx")
        blob = bytearray(path.read_bytes())
        # Flip a byte inside the JSON header (starts right after the preamble).
        blob[12] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError):
            read_index_header(path)

    def test_torn_node_detected_by_crc(self, tmp_path):
        pairs = _pairs(300)
        path = save_index(BPlusTree.bulk_load(pairs, order=8), "f0", tmp_path / "t.idx")
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x55  # land inside the last node's payload
        path.write_bytes(bytes(blob))
        with pytest.raises(Exception) as excinfo:
            IndexFileReader(path).validate()
        assert type(excinfo.value).__name__ in (
            "ChecksumError", "ReadExhaustedError", "IndexFormatError"
        )

    def test_crc32_directory_matches_payloads(self, tmp_path):
        """The node directory's CRCs actually cover the stored payloads."""
        path = save_index(BPlusTree.bulk_load(_pairs(150), order=8), "f0", tmp_path / "t.idx")
        header = read_index_header(path)
        reader = IndexFileReader(path)
        for node_id in range(header["n_nodes"]):
            raw = reader._read_node_raw(node_id)
            assert zlib.crc32(raw) == reader._directory[node_id][2]

    def test_bytes_match_the_per_entry_encoder(self, tmp_path):
        """``save_index`` packs a leaf's keys and RIDs a run at a time; the
        bytes must equal the one-``struct.pack``-per-field encoder it
        replaced (format v1 plus the header's ``lsn`` key), on every tree
        shape this file builds — bulk loads, grown trees, emptied leaves."""
        grown = BPlusTree(order=4)
        for key, rid in _pairs(60, stride=7):
            grown.insert(key % 11, rid)
        emptied = BPlusTree.bulk_load(_pairs(40), order=4)
        for key, rid in _pairs(40)[8:20]:
            emptied.delete(key, rid)
        trees = [
            BPlusTree(order=4),
            BPlusTree.bulk_load(_pairs(10), order=4),
            BPlusTree.bulk_load(_pairs(400, stride=3), order=8),
            BPlusTree.bulk_load(_pairs(150)),
            grown,
            emptied,
        ]
        for lsn, tree in enumerate(trees):
            path = save_index(tree, "f2", tmp_path / "t.idx", lsn=lsn)
            assert path.read_bytes() == _reference_blob(tree, "f2", lsn)
            assert IndexFileReader(path).lsn == lsn


def _reference_blob(tree: BPlusTree, column: str, lsn: int) -> bytes:
    """The ``.idx`` bytes, one ``struct.pack`` per key / RID / child."""
    import json

    numbered = tree.nodes()
    ids = {id(node): node_id for node_id, node in numbered}
    payloads = []
    for _, node in numbered:
        if node.is_leaf:
            parts = [struct.pack(">BH", 0, len(node.entries))]
            parts += [struct.pack(">d", key) for key, _ in node.entries]
            parts += [struct.pack(">IH", *rid) for _, rid in node.entries]
            next_id = 0xFFFFFFFF if node.next is None else ids[id(node.next)]
            parts.append(struct.pack(">I", next_id))
        else:
            parts = [struct.pack(">BH", 1, len(node.separators))]
            for key, rid in node.separators:
                parts += [struct.pack(">d", key), struct.pack(">IH", *rid)]
            parts += [struct.pack(">I", ids[id(child)]) for child in node.children]
        payloads.append(b"".join(parts))
    header = json.dumps(
        {
            "column": column,
            "order": tree.order,
            "n_entries": tree.n_entries,
            "n_nodes": len(payloads),
            "height": tree.height,
            "root": 0,
            "lsn": lsn,
        }
    ).encode()
    directory, offset = [], 0
    for payload in payloads:
        directory.append(struct.pack(">QII", offset, len(payload), zlib.crc32(payload)))
        offset += len(payload)
    return b"".join(
        [
            struct.pack(">4sHHI", MAGIC, FORMAT_VERSION, 0, len(header)),
            header,
            struct.pack(">I", zlib.crc32(header)),
            *directory,
            *payloads,
        ]
    )
