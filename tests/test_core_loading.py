"""Tests for the ShuffleBuffer oracle, pipeline timing, CorgiPileDataset, DataLoader."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CorgiPileDataset, DataLoader, pipelined_time, serial_time
from repro.storage import TupleBatch, write_block_file

from ._oracles import ShuffleBuffer


class TestShuffleBuffer:
    def test_fill_shuffle_drain(self):
        rng = np.random.default_rng(0)
        buf: ShuffleBuffer[int] = ShuffleBuffer(10, rng)
        added = buf.fill_from(iter(range(25)))
        assert added == 10
        assert buf.full
        drained = buf.shuffle_and_drain()
        assert sorted(drained) == list(range(10))
        assert len(buf) == 0

    def test_add_beyond_capacity_rejected(self):
        buf: ShuffleBuffer[int] = ShuffleBuffer(1, np.random.default_rng(0))
        buf.add(1)
        with pytest.raises(ValueError):
            buf.add(2)

    def test_partial_fill(self):
        buf: ShuffleBuffer[int] = ShuffleBuffer(10, np.random.default_rng(0))
        assert buf.fill_from(iter(range(3))) == 3
        assert not buf.full
        assert sorted(buf.shuffle_and_drain()) == [0, 1, 2]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ShuffleBuffer(0, np.random.default_rng(0))

    def test_fill_from_full_buffer_does_not_overfill(self):
        """Regression: fill_from on a full buffer must not exceed capacity."""
        buf: ShuffleBuffer[int] = ShuffleBuffer(3, np.random.default_rng(0))
        assert buf.fill_from(iter(range(3))) == 3
        assert buf.full
        assert buf.fill_from(iter(range(100))) == 0
        assert len(buf) == 3

    def test_fill_from_consumes_only_stored_items(self):
        buf: ShuffleBuffer[int] = ShuffleBuffer(5, np.random.default_rng(0))
        buf.add(0)
        source = iter(range(10, 20))
        assert buf.fill_from(source) == 4
        assert len(buf) == 5
        # The first unstored item is still available from the source.
        assert next(source) == 14


class TestPipelineTiming:
    def test_serial_is_sum(self):
        assert serial_time([1, 2], [3, 4]) == 10

    def test_pipelined_overlaps(self):
        # fill0=2, then max(fill1=2, consume0=3)=3, then consume1=3.
        assert pipelined_time([2, 2], [3, 3]) == 8
        assert serial_time([2, 2], [3, 3]) == 10

    def test_pipelined_never_slower_than_serial(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            fills = rng.random(5).tolist()
            consumes = rng.random(5).tolist()
            assert pipelined_time(fills, consumes) <= serial_time(fills, consumes) + 1e-12

    def test_empty(self):
        assert pipelined_time([], []) == 0.0
        assert serial_time([], []) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pipelined_time([1], [])
        with pytest.raises(ValueError):
            serial_time([1], [])

    def test_single_fill(self):
        assert pipelined_time([2], [5]) == 7


@pytest.fixture()
def block_file(tmp_path, dense_binary):
    path = tmp_path / "train.blocks"
    write_block_file(dense_binary, path, tuples_per_block=30)  # 20 blocks
    return path


def fill_ids(ds) -> list[int]:
    return [int(i) for fill in ds.fills() for i in fill.ids]


class TestCorgiPileDataset:
    def test_iterates_every_tuple_once(self, block_file, dense_binary):
        with CorgiPileDataset(block_file, buffer_blocks=4, seed=0) as ds:
            ids = fill_ids(ds)
        assert sorted(ids) == list(range(dense_binary.n_tuples))

    def test_order_is_shuffled(self, block_file):
        with CorgiPileDataset(block_file, buffer_blocks=4, seed=0) as ds:
            ids = np.array(fill_ids(ds))
        assert not np.array_equal(ids, np.arange(ids.size))

    def test_set_epoch_changes_order(self, block_file):
        with CorgiPileDataset(block_file, buffer_blocks=4, seed=0) as ds:
            first = fill_ids(ds)
            ds.set_epoch(1)
            second = fill_ids(ds)
        assert first != second
        assert sorted(first) == sorted(second)

    def test_same_epoch_replays(self, block_file):
        with CorgiPileDataset(block_file, buffer_blocks=4, seed=0) as ds:
            first = fill_ids(ds)
            second = fill_ids(ds)
        assert first == second

    def test_workers_partition_data(self, block_file, dense_binary):
        ids: list[int] = []
        for w in range(3):
            with CorgiPileDataset(block_file, 2, seed=0, worker_id=w, n_workers=3) as ds:
                ids.extend(fill_ids(ds))
        assert sorted(ids) == list(range(dense_binary.n_tuples))

    def test_invalid_args(self, block_file):
        with pytest.raises(ValueError):
            CorgiPileDataset(block_file, buffer_blocks=0)
        with pytest.raises(ValueError):
            CorgiPileDataset(block_file, 1, worker_id=2, n_workers=2)

    def test_negative_epoch_rejected(self, block_file):
        ds = CorgiPileDataset(block_file, 2)
        with pytest.raises(ValueError):
            ds.set_epoch(-1)
        ds.close()


class TestDataLoader:
    def test_batches_dense(self, block_file, dense_binary):
        with CorgiPileDataset(block_file, 4, seed=0) as ds:
            loader = DataLoader(ds, batch_size=64)
            batches = list(loader)
        assert sum(len(b) for b in batches) == dense_binary.n_tuples
        assert batches[0].features_matrix().shape == (64, dense_binary.n_features)
        assert batches[0].labels.shape == (64,)

    def test_drop_last(self, block_file, dense_binary):
        with CorgiPileDataset(block_file, 4, seed=0) as ds:
            batches = list(DataLoader(ds, batch_size=64, drop_last=True))
        assert all(len(b) == 64 for b in batches)

    def test_collate_sparse(self, sparse_binary, tmp_path):
        path = tmp_path / "sparse.blocks"
        write_block_file(sparse_binary, path, tuples_per_block=25)
        with CorgiPileDataset(path, 2, seed=0) as ds:
            batch = next(iter(DataLoader(ds, batch_size=16)))
        X = batch.features_matrix()
        assert X.shape == (16, sparse_binary.n_features)
        # Batch rows must match the dataset rows they claim to be.
        dense = sparse_binary.X.to_dense()
        np.testing.assert_allclose(X.to_dense()[0], dense[batch.ids[0]])

    def test_invalid_batch_size(self, block_file):
        with pytest.raises(ValueError):
            DataLoader([], batch_size=0)

    def test_batch_labels_align(self, block_file, dense_binary):
        with CorgiPileDataset(block_file, 4, seed=1) as ds:
            batch = next(iter(DataLoader(ds, batch_size=32)))
        assert isinstance(batch, TupleBatch)
        np.testing.assert_allclose(batch.labels, dense_binary.y[batch.ids])
