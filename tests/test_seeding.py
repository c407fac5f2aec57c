"""Regression tests pinning the unified RNG-derivation helpers.

``repro.core.seeding`` replaced inline ``SeedSequence([...])`` construction
in the shuffle strategies, the iterable dataset, the multi-process
simulation, the Volcano operators, and the fault plan.  These tests pin
draw values captured *before* the unification, so any change to the
derivation formulas (word order, offsets, stream codes) fails loudly —
fault schedules and shuffles must stay byte-identical across the refactor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.seeding import (
    FAULT_UNIT_CODES,
    MRS_STREAM,
    SLIDING_WINDOW_STREAM,
    TUPLE_SHUFFLE_STREAM,
    derive_rng,
    epoch_rng,
    fault_unit_rng,
    stream_rng,
    worker_rng,
)


class TestFormulaEquivalence:
    """Each helper is exactly its historical inline SeedSequence formula."""

    def test_derive_rng_matches_seed_sequence(self):
        expected = np.random.default_rng(np.random.SeedSequence([4, 9, 2])).random(5)
        assert np.array_equal(derive_rng(4, 9, 2).random(5), expected)

    def test_epoch_rng(self):
        expected = np.random.default_rng(np.random.SeedSequence([3, 5])).integers(0, 1000, 10)
        assert np.array_equal(epoch_rng(3, 5).integers(0, 1000, 10), expected)

    def test_worker_rng_offsets_worker_id_by_one(self):
        expected = np.random.default_rng(np.random.SeedSequence([7, 2, 1 + 3])).random(8)
        assert np.array_equal(worker_rng(7, 2, 3).random(8), expected)

    def test_worker_zero_differs_from_epoch_stream(self):
        assert not np.array_equal(
            worker_rng(0, 0, 0).random(16), epoch_rng(0, 0).random(16)
        )

    def test_stream_rng(self):
        for code in (TUPLE_SHUFFLE_STREAM, SLIDING_WINDOW_STREAM, MRS_STREAM):
            expected = np.random.default_rng(np.random.SeedSequence([1, 4, code])).random(6)
            assert np.array_equal(stream_rng(1, 4, code).random(6), expected)

    def test_fault_unit_rng(self):
        expected = np.random.default_rng(np.random.SeedSequence([11, 2, 5])).random(4)
        assert np.array_equal(fault_unit_rng(11, "page", 5).random(4), expected)

    def test_fault_unit_rng_rejects_unknown_unit(self):
        with pytest.raises(KeyError):
            fault_unit_rng(0, "tablet", 0)


class TestPinnedValues:
    """Values captured from the pre-unification code paths."""

    def test_stream_codes_are_stable(self):
        assert TUPLE_SHUFFLE_STREAM == 7
        assert SLIDING_WINDOW_STREAM == 11
        assert MRS_STREAM == 13
        # "index_node" (B+tree files) was appended; code 3 (the retired
        # columnar "chunk" unit) is not reused, and the remaining codes must
        # never move (they pin every historical fault plan's draws).
        assert FAULT_UNIT_CODES == {"block": 1, "page": 2, "index_node": 4}

    def test_epoch_permutation_pin(self):
        # Pre-refactor: SeedSequence([0, 0]).permutation(8)
        assert epoch_rng(0, 0).permutation(8).tolist() == [2, 4, 3, 6, 5, 0, 1, 7]

    def test_shuffle_strategy_rng_pin(self):
        # Pre-refactor pin from tests/test_strategies.py determinism check.
        assert epoch_rng(3, 5).integers(0, 1000, 10).tolist() == [
            23, 136, 56, 883, 818, 898, 300, 577, 333, 690,
        ]

    def test_fault_plan_draw_pin(self):
        """FaultPlan._draw's uniforms for seed=0 blocks 0..7 (captured)."""
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(seed=0, p_transient=0.5, p_torn=0.25, p_latency=0.125,
                         latency_s=0.001, max_failures=4)
        got = []
        for block in range(8):
            d = plan._draw("block", block)
            got.append((block, d.transient_fails, d.torn_fails, d.delay_s))
        assert got == [
            (0, 0, 0, 0.0),
            (1, 0, 0, 0.0),
            (2, 0, 0, 0.0),
            (3, 0, 0, 0.0),
            (4, 3, 0, 0.0),
            (5, 2, 2, 0.0),
            (6, 2, 0, 0.0),
            (7, 1, 0, 0.0),
        ]


class TestMultiProcessPins:
    """MultiProcessCorgiPile streams are unchanged by the seeding rewire."""

    @pytest.fixture
    def mp(self):
        from repro.core.distributed import MultiProcessCorgiPile
        from repro.data.dataset import BlockLayout

        return MultiProcessCorgiPile(
            BlockLayout(n_tuples=640, tuples_per_block=20), n_workers=4,
            buffer_blocks=2, seed=5,
        )

    def test_worker_blocks_pin(self, mp):
        assert mp.worker_blocks(1)[0].tolist() == [10, 12, 18, 27, 14, 2, 4, 28]

    def test_worker_epoch_indices_pin(self, mp):
        assert mp.worker_epoch_indices(1, 2)[:10].tolist() == [
            152, 193, 144, 154, 194, 195, 151, 184, 147, 156,
        ]

    def test_epoch_indices_pin(self, mp):
        assert mp.epoch_indices(0, 32)[:12].tolist() == [
            196, 180, 599, 182, 581, 584, 586, 181, 247, 249, 253, 343,
        ]

    def test_buffer_fills_concatenate_to_epoch_stream(self, mp):
        for worker in range(4):
            fills = mp.worker_buffer_fills(1, worker)
            flat = np.concatenate([idx for _, idx in fills])
            assert np.array_equal(flat, mp.worker_epoch_indices(1, worker))
            blocks = np.concatenate([grp for grp, _ in fills])
            assert np.array_equal(blocks, mp.worker_blocks(1)[worker])


class TestDatasetUsesSharedStreams:
    """CorgiPileDataset's visit order is reproducible via the helpers."""

    def test_dataset_block_order_matches_epoch_rng(self, tmp_path):
        from repro.core.dataset import CorgiPileDataset
        from repro.data.generators import make_binary_dense
        from repro.storage.blockfile import write_block_file

        ds_src = make_binary_dense(40, 4, seed=0)
        path = tmp_path / "t.blk"
        write_block_file(ds_src, path, tuples_per_block=10)
        with CorgiPileDataset(path, buffer_blocks=4, seed=9) as ds:
            ds.set_epoch(2)
            seen = [int(i) for fill in ds.fills() for i in fill.ids]
        # buffer covers the whole table -> one fill, shuffled by worker_rng
        order = epoch_rng(9, 2).permutation(4)
        expected = np.concatenate([np.arange(b * 10, b * 10 + 10) for b in order])
        rng = worker_rng(9, 2, 0)
        rng.shuffle(expected)
        assert seen == expected.tolist()
