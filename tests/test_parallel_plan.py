"""Shard-planner edge cases and simulation-equality guarantees.

The satellite checklist pins: ``n_blocks < n_workers``, uneven splits,
single-block tables, and — the load-bearing one — equality of the
concatenated executed tuple order with ``MultiProcessCorgiPile``'s
simulated stream for PN ∈ {1, 2, 4}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CorgiPileDataset
from repro.core.distributed import MultiProcessCorgiPile
from repro.obs import LoaderMetrics
from repro.data.dataset import BlockLayout
from repro.data.generators import make_binary_dense, make_binary_sparse
from repro.parallel import ShardPlanner
from repro.storage import write_block_file


@pytest.fixture()
def block_file(tmp_path):
    ds = make_binary_dense(200, 6, seed=0)
    path = tmp_path / "plan.blk"
    write_block_file(ds, path, tuples_per_block=20)
    return path, ds


class TestPlannerConstruction:
    def test_for_block_file_reads_layout(self, block_file):
        path, ds = block_file
        planner = ShardPlanner.for_block_file(path, n_workers=2, buffer_blocks=2, seed=7)
        assert planner.n_tuples == ds.n_tuples
        assert planner.tuples_per_block == 20
        assert planner.n_blocks == 10
        assert planner.describe()["seed"] == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlanner(100, 10, n_workers=0, buffer_blocks=2)
        with pytest.raises(ValueError):
            ShardPlanner(100, 10, n_workers=2, buffer_blocks=0)
        planner = ShardPlanner(100, 10, n_workers=3, buffer_blocks=2)
        with pytest.raises(ValueError):
            planner.per_worker_batch(32)  # not divisible by 3
        with pytest.raises(ValueError):
            planner.per_worker_batch(0)

    def test_planner_is_picklable(self):
        import pickle

        planner = ShardPlanner(100, 10, n_workers=4, buffer_blocks=2, seed=3)
        clone = pickle.loads(pickle.dumps(planner))
        for w in range(4):
            assert np.array_equal(
                clone.worker_epoch_indices(1, w), planner.worker_epoch_indices(1, w)
            )


class TestEdgeCases:
    def test_fewer_blocks_than_workers(self):
        # 2 blocks over 4 workers: two shards are empty, nothing crashes,
        # and the non-empty shards cover the table exactly once.
        planner = ShardPlanner(40, 20, n_workers=4, buffer_blocks=1, seed=0)
        sizes = planner.shard_sizes(0)
        assert sorted(sizes) == [0, 0, 20, 20]
        all_indices = np.concatenate(
            [planner.worker_epoch_indices(0, w) for w in range(4)]
        )
        assert sorted(all_indices.tolist()) == list(range(40))
        assert planner.sync_steps(0, 8) == 0  # smallest shard is empty

    def test_uneven_split(self):
        # 7 blocks over 2 workers → 4 + 3 blocks; last block is short.
        planner = ShardPlanner(65, 10, n_workers=2, buffer_blocks=2, seed=1)
        assert planner.n_blocks == 7
        blocks = planner.worker_blocks(0)
        assert [len(b) for b in blocks] == [4, 3]
        assert sum(planner.shard_sizes(0)) == 65

    def test_single_block_table(self):
        planner = ShardPlanner(15, 20, n_workers=2, buffer_blocks=2, seed=0)
        assert planner.n_blocks == 1
        sizes = planner.shard_sizes(0)
        assert sorted(sizes) == [0, 15]
        covered = np.concatenate([planner.worker_epoch_indices(0, w) for w in range(2)])
        assert sorted(covered.tolist()) == list(range(15))

    def test_buffer_fills_group_sizes(self):
        planner = ShardPlanner(200, 20, n_workers=2, buffer_blocks=2, seed=0)
        fills = planner.worker_buffer_fills(0, 0)
        assert [len(g) for g, _ in fills] == [2, 2, 1]  # 5 blocks in groups of 2
        for group, indices in fills:
            expect = sum(planner.layout.block_size(int(b)) for b in group)
            assert indices.size == expect


class TestSimulationEquality:
    """The planner's streams ARE the MultiProcessCorgiPile simulation."""

    @pytest.mark.parametrize("pn", [1, 2, 4])
    def test_concatenated_order_matches_simulation(self, pn):
        planner = ShardPlanner(640, 20, n_workers=pn, buffer_blocks=2, seed=5)
        sim = MultiProcessCorgiPile(
            BlockLayout(640, 20), pn, buffer_blocks_per_worker=2, seed=5
        )
        for epoch in range(3):
            for w in range(pn):
                assert np.array_equal(
                    planner.worker_epoch_indices(epoch, w),
                    sim.worker_epoch_indices(epoch, w),
                )
            assert np.array_equal(
                planner.epoch_indices(epoch, 8 * pn), sim.epoch_indices(epoch, 8 * pn)
            )

    @pytest.mark.parametrize("pn", [1, 2, 4])
    def test_sync_steps_match_global_batches(self, pn):
        planner = ShardPlanner(500, 20, n_workers=pn, buffer_blocks=2, seed=2)
        gbs = 4 * pn
        for epoch in range(2):
            batches = list(planner.global_batches(epoch, gbs))
            assert planner.sync_steps(epoch, gbs) == len(batches)


class TestShardFetcher:
    """Executed data access reproduces the simulated visit order: a worker
    reads its shard through ``CorgiPileDataset.fills()`` (class name kept
    for the test ids)."""

    def test_fetch_fill_rows_follow_visit_order(self, block_file, tmp_path):
        path, ds = block_file
        planner = ShardPlanner.for_block_file(path, n_workers=2, buffer_blocks=2, seed=4)
        stats = LoaderMetrics("fetch")
        planned = planner.worker_buffer_fills(0, 1)
        with CorgiPileDataset(path, 2, seed=4, worker_id=1, n_workers=2, stats=stats) as shard:
            for fill, (_group, indices) in zip(shard.fills(), planned, strict=True):
                X, y = fill.features_matrix(), fill.labels
                assert np.array_equal(fill.ids, indices)
                assert np.array_equal(y, ds.y[indices])
                assert np.allclose(X, ds.X[indices])
        assert stats.buffers_filled == len(planned)
        assert stats.tuples_buffered == planner.shard_sizes(0)[1]

    def test_fetch_fill_sparse(self, tmp_path):
        ds = make_binary_sparse(120, 40, seed=3)
        path = tmp_path / "sparse.blk"
        write_block_file(ds, path, tuples_per_block=30)
        planner = ShardPlanner.for_block_file(path, n_workers=2, buffer_blocks=1, seed=0)
        with CorgiPileDataset(path, 1, seed=0, worker_id=0, n_workers=2) as shard:
            _group, indices = planner.worker_buffer_fills(0, 0)[0]
            fill = next(shard.fills())
            X, y = fill.features_matrix(), fill.labels
            assert np.array_equal(y, ds.y[indices])
            dense = X.toarray() if hasattr(X, "toarray") else X.to_dense()
            want = ds.X.take_rows(np.asarray(indices)).to_dense()
            assert np.allclose(dense, want)

    def test_fills_from_a_start_index_skip_the_reads_not_the_draws(self, block_file):
        """``fills(start=k)`` yields what ``fills()`` yields from fill ``k`` on
        and reads none of the blocks before it (the sync-resume property)."""
        path, _ds = block_file
        planner = ShardPlanner.for_block_file(path, n_workers=2, buffer_blocks=2, seed=4)
        groups = [group.size for group, _ in planner.worker_buffer_fills(0, 1)]
        with CorgiPileDataset(path, 2, seed=4, worker_id=1, n_workers=2) as shard:
            whole = list(shard.fills())
            for start in range(len(whole) + 1):
                before = shard.reader.blocks_read
                rest = list(shard.fills(start=start))
                assert [f.ids.tolist() for f in rest] == [f.ids.tolist() for f in whole[start:]]
                assert shard.reader.blocks_read - before == sum(groups[start:])
