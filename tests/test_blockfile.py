"""Tests for the on-disk block file format (the PyTorch-side storage)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import BlockFileReader, write_block_file


@pytest.fixture()
def dense_file(tmp_path, dense_binary):
    path = tmp_path / "dense.blocks"
    entries = write_block_file(dense_binary, path, tuples_per_block=50)
    return path, entries


class TestWrite:
    def test_block_count(self, dense_file, dense_binary):
        _, entries = dense_file
        assert len(entries) == -(-dense_binary.n_tuples // 50)

    def test_offsets_contiguous(self, dense_file):
        _, entries = dense_file
        expected = 0
        for entry in entries:
            assert entry.offset == expected
            expected += entry.length

    def test_index_sidecar_written(self, dense_file):
        path, _ = dense_file
        assert (path.parent / (path.name + ".index.json")).exists()

    def test_invalid_block_size(self, tmp_path, dense_binary):
        with pytest.raises(ValueError):
            write_block_file(dense_binary, tmp_path / "x", tuples_per_block=0)


class TestRead:
    def test_read_all_blocks_covers_dataset(self, dense_file, dense_binary):
        path, _ = dense_file
        with BlockFileReader(path) as reader:
            ids = []
            for b in range(reader.n_blocks):
                ids.extend(reader.read_block_batch(b).ids.tolist())
        assert sorted(ids) == list(range(dense_binary.n_tuples))

    def test_block_content_matches_dataset(self, dense_file, dense_binary):
        path, _ = dense_file
        with BlockFileReader(path) as reader:
            batch = reader.read_block_batch(2)
        for i, tuple_id in enumerate(batch.ids):
            np.testing.assert_allclose(batch.row(i), dense_binary.X[tuple_id])
            assert batch.labels[i] == dense_binary.y[tuple_id]

    def test_byte_accounting(self, dense_file):
        path, entries = dense_file
        with BlockFileReader(path) as reader:
            reader.read_block_batch(0)
            reader.read_block_batch(3)
            assert reader.blocks_read == 2
            assert reader.bytes_read == entries[0].length + entries[3].length

    def test_sparse_roundtrip(self, tmp_path, sparse_binary):
        path = tmp_path / "sparse.blocks"
        write_block_file(sparse_binary, path, tuples_per_block=32)
        with BlockFileReader(path) as reader:
            batch = reader.read_block_batch(0)
            assert batch.is_sparse
            np.testing.assert_allclose(batch.row(0).to_dense(), sparse_binary.X.to_dense()[0])

    def test_random_block_access_out_of_order(self, dense_file):
        path, _ = dense_file
        with BlockFileReader(path) as reader:
            last = reader.read_block_batch(reader.n_blocks - 1)
            first = reader.read_block_batch(0)
        assert first.ids[0] == 0
        assert last.ids[-1] > first.ids[-1]


# ----------------------------------------------------------------------
# The bulk row writer is the per-tuple writer, byte for byte
# ----------------------------------------------------------------------


def _write_per_tuple(dataset, path, tuples_per_block):
    """The tuple-at-a-time row writer ``write_block_file`` replaced: one
    ``encode_tuple`` a row, the same index document."""
    import json
    import zlib

    from repro.storage import encode_tuple

    labels = np.asarray(dataset.y, dtype=np.float64)
    blocks, offset = [], 0
    with open(path, "wb") as f:
        for block_id, lo in enumerate(range(0, dataset.n_tuples, tuples_per_block)):
            hi = min(lo + tuples_per_block, dataset.n_tuples)
            payload = b"".join(
                encode_tuple(i, labels[i], dataset.X.row(i) if dataset.is_sparse else dataset.X[i])
                for i in range(lo, hi)
            )
            f.write(payload)
            blocks.append(
                {
                    "block_id": block_id, "offset": offset, "length": len(payload),
                    "n_tuples": hi - lo, "crc32": zlib.crc32(payload),
                }
            )
            offset += len(payload)
    doc = {
        "format": 2, "n_features": dataset.n_features, "sparse": dataset.is_sparse,
        "n_tuples": dataset.n_tuples, "blocks": blocks,
    }
    with open(str(path) + ".index.json", "w") as f:
        json.dump(doc, f)


class TestBulkRowWriter:
    @pytest.mark.parametrize(
        "which, tuples_per_block",
        [
            ("dense_binary", 50),  # 600 rows: whole blocks
            ("dense_binary", 64),  # a short tail block
            ("dense_binary", 1000),  # tuples_per_block > n_tuples: one block
            ("sparse_binary", 32),
            ("sparse_binary", 7),
            ("sparse_binary", 10_000),
        ],
    )
    def test_files_equal_the_per_tuple_writer(self, request, tmp_path, which, tuples_per_block):
        dataset = request.getfixturevalue(which)
        bulk, reference = tmp_path / "bulk.blocks", tmp_path / "reference.blocks"
        write_block_file(dataset, bulk, tuples_per_block)
        _write_per_tuple(dataset, reference, tuples_per_block)
        assert bulk.read_bytes() == reference.read_bytes()
        index = lambda path: (path.parent / (path.name + ".index.json")).read_bytes()
        assert index(bulk) == index(reference)

    def test_non_float64_dataset_is_stored_as_float64(self, tmp_path, dense_binary):
        from repro.data.dataset import Dataset

        narrow = Dataset(
            np.asfortranarray(dense_binary.X.astype(np.float32)), dense_binary.y, name="f32"
        )
        bulk, reference = tmp_path / "bulk.blocks", tmp_path / "reference.blocks"
        write_block_file(narrow, bulk, 50)
        _write_per_tuple(narrow, reference, 50)
        assert bulk.read_bytes() == reference.read_bytes()


def test_index_without_checksums_is_refused(tmp_path, dense_binary):
    """Was: a v1 index (blocks without ``crc32``) opened and its blocks were
    read unverified.  Every block read is verified, so the reader refuses it."""
    import json

    path = tmp_path / "v1.blocks"
    _write_per_tuple(dense_binary, path, 50)
    index = tmp_path / "v1.blocks.index.json"
    doc = json.loads(index.read_text())
    doc["format"] = 1
    for block in doc["blocks"]:
        del block["crc32"]
    index.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"v1\.blocks: block 0 has no crc32"):
        BlockFileReader(path)


def test_columnar_index_is_refused(tmp_path, dense_binary):
    """Was: an index marked columnar (``"format": 3`` or ``"layout":
    "columnar"``) opened and its blocks decoded as column chunks.  Block
    files are row records only, so the reader refuses it at open."""
    import json
    import zlib

    from repro.storage import encode_block_columnar
    from repro.storage.blockfile import dataset_block_batch

    path = tmp_path / "v3.blocks"
    payload = encode_block_columnar(dataset_block_batch(dense_binary, 0, 50))
    path.write_bytes(payload)
    block = {"block_id": 0, "offset": 0, "length": len(payload), "n_tuples": 50}
    for marks in ({"format": 3, "layout": "columnar"}, {"format": 3}, {"layout": "columnar"}):
        doc = {
            "format": 2, "n_features": dense_binary.n_features, "sparse": False,
            "n_tuples": 50, "blocks": [{**block, "crc32": zlib.crc32(payload)}], **marks,
        }
        (tmp_path / "v3.blocks.index.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"v3\.blocks: columnar block index"):
            BlockFileReader(path)
