"""Tests for multi-process CorgiPile (Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CorgiPileShuffle, MultiProcessCorgiPile
from repro.data import BlockLayout, clustered_by_label
from repro.theory import label_mixing_deviation


@pytest.fixture()
def mp() -> MultiProcessCorgiPile:
    layout = BlockLayout(640, 20)  # 32 blocks
    return MultiProcessCorgiPile(layout, n_workers=4, buffer_blocks=2, seed=5)


class TestBlockAssignment:
    def test_workers_get_disjoint_blocks(self, mp):
        assignments = mp.worker_blocks(0)
        seen: set[int] = set()
        for blocks in assignments:
            as_set = set(blocks.tolist())
            assert not (seen & as_set)
            seen |= as_set
        assert seen == set(range(32))

    def test_same_seed_same_assignment(self, mp):
        other = MultiProcessCorgiPile(mp.layout, 4, 2, seed=5)
        for a, b in zip(mp.worker_blocks(3), other.worker_blocks(3)):
            np.testing.assert_array_equal(a, b)

    def test_epochs_reshuffle_blocks(self, mp):
        a = np.concatenate(mp.worker_blocks(0))
        b = np.concatenate(mp.worker_blocks(1))
        assert not np.array_equal(a, b)


class TestWorkerStreams:
    def test_worker_stream_covers_its_blocks(self, mp):
        blocks = mp.worker_blocks(0)[1]
        stream = mp.worker_epoch_indices(0, 1)
        expected = set()
        for b in blocks:
            expected.update(mp.layout.block_indices(int(b)).tolist())
        assert set(stream.tolist()) == expected

    def test_invalid_worker(self, mp):
        with pytest.raises(IndexError):
            mp.worker_epoch_indices(0, 99)

    def test_streams_are_shuffled(self, mp):
        stream = mp.worker_epoch_indices(0, 0)
        assert not np.all(np.diff(stream) == 1)


class TestGlobalBatches:
    def test_each_batch_takes_equally_from_workers(self, mp):
        batches = list(mp.global_batches(0, global_batch_size=32))
        streams = [mp.worker_epoch_indices(0, w) for w in range(4)]
        first = batches[0]
        for w in range(4):
            np.testing.assert_array_equal(first[w * 8 : (w + 1) * 8], streams[w][:8])

    def test_batch_size_must_divide(self, mp):
        with pytest.raises(ValueError):
            list(mp.global_batches(0, global_batch_size=30))

    def test_epoch_indices_flatten(self, mp):
        flat = mp.epoch_indices(0, global_batch_size=32)
        assert flat.size == 32 * len(list(mp.global_batches(0, 32)))
        assert flat.size % 32 == 0

    def test_all_indices_valid(self, mp):
        flat = mp.epoch_indices(0, 32)
        assert flat.min() >= 0 and flat.max() < 640
        assert len(set(flat.tolist())) == flat.size  # no duplicates


class TestEquivalenceWithSingleProcess:
    def test_equivalent_buffer_scaling(self, mp):
        single = mp.equivalent_single_process()
        assert isinstance(single, CorgiPileShuffle)
        assert single.buffer_blocks == 8  # 4 workers x 2 blocks

    def test_label_mixing_comparable(self):
        """Figure 5's claim: multi-process order mixes like single-process.

        On a clustered table, both orders should spread labels across
        windows comparably (within a tolerance), while the raw clustered
        order does not.
        """
        from repro.data import make_binary_dense

        ds = clustered_by_label(make_binary_dense(640, 4, seed=0), seed=0)
        layout = ds.layout(20)
        mp = MultiProcessCorgiPile(layout, 4, 2, seed=9)
        multi_order = mp.epoch_indices(0, global_batch_size=64)
        single_order = mp.equivalent_single_process().epoch_indices(0)
        dev_multi = label_mixing_deviation(multi_order, ds.y, window=64)
        dev_single = label_mixing_deviation(single_order, ds.y, window=64)
        dev_none = label_mixing_deviation(np.arange(640), ds.y, window=64)
        assert abs(dev_multi - dev_single) < 0.15
        assert dev_multi < dev_none / 2

    def test_construction_validation(self):
        layout = BlockLayout(100, 10)
        with pytest.raises(ValueError):
            MultiProcessCorgiPile(layout, 0, 1)
        with pytest.raises(ValueError):
            MultiProcessCorgiPile(layout, 2, 0)
