"""One block-file fill: ``CorgiPileDataset.fills()`` is what ``DataLoader`` cuts.

* **Goldens** (``tests/goldens/loader_order.json``) recorded at the last
  commit whose ``__iter__`` ran the per-tuple ``ShuffleBuffer`` loop
  (``8d1c4b9``), by running this file against that checkout
  (``PYTHONPATH=<parent>/src python tests/test_loader_fills.py --regen``):
  the sha256 of the 2-epoch tuple-id stream of every worker, for dense/sparse
  × four ``(tuples_per_block, buffer_blocks, n_workers)`` geometries (a
  buffer of several blocks, a buffer that does not divide the worker's
  share, a one-block buffer, a buffer larger than the file).  Ids are
  integers, so the goldens do not depend on the platform.  The file also
  keeps the entries of the retired columnar block-file layout, each equal
  to its row twin.
* ``fills()`` and the ``DataLoader`` batches cut from them (batch sizes 1,
  7 and 64; ``drop_last``) are held to them, and fill sizes to the
  ``buffer_blocks`` grouping.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import CorgiPileDataset, DataLoader
from repro.data import make_binary_dense, make_binary_sparse
from repro.storage import write_block_file

GOLDENS = Path(__file__).parent / "goldens" / "loader_order.json"
SEED = 7
#: (tuples_per_block, buffer_blocks, n_workers)
GEOMETRIES = [(40, 3, 1), (33, 4, 2), (50, 1, 3), (40, 100, 1)]
LAYOUTS = ("row",)
CASES = [
    (kind, layout, geometry)
    for kind in ("dense", "sparse")
    for layout in LAYOUTS
    for geometry in GEOMETRIES
]


def case_id(case) -> str:
    kind, layout, geometry = case
    return f"{kind}-{layout}-" + "x".join(map(str, geometry))


def _dataset(kind: str):
    if kind == "dense":
        return make_binary_dense(430, 6, separation=1.2, seed=5)
    return make_binary_sparse(370, 60, nnz_per_row=6, separation=1.0, seed=9)


def _write(case, directory) -> Path:
    kind, _layout, (tuples_per_block, _buffer_blocks, _n_workers) = case
    path = Path(directory) / f"{case_id(case)}.blocks"
    write_block_file(_dataset(kind), path, tuples_per_block)
    return path


def _views(case, path):
    _kind, _layout, (_tpb, buffer_blocks, n_workers) = case
    for worker in range(n_workers):
        with CorgiPileDataset(
            path, buffer_blocks, seed=SEED, worker_id=worker, n_workers=n_workers
        ) as view:
            yield view


def _digest(ids) -> str:
    return hashlib.sha256(np.asarray(ids, dtype=np.int64).tobytes()).hexdigest()


def _stream_digests(case, path, ids_of) -> list[str]:
    """One digest per worker: its epoch-0 then epoch-1 id stream."""
    digests = []
    for view in _views(case, path):
        ids: list[int] = []
        for epoch in range(2):
            view.set_epoch(epoch)
            ids.extend(ids_of(view))
        digests.append(_digest(ids))
    return digests


def _fill_ids(view) -> list[int]:
    return [int(i) for fill in view.fills() for i in fill.ids]


def _loader_ids(batch_size: int):
    def ids_of(view) -> list[int]:
        return [int(i) for batch in DataLoader(view, batch_size) for i in batch.ids]

    return ids_of


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_iter_and_fills_reproduce_the_recorded_id_stream(case, goldens, tmp_path):
    path = _write(case, tmp_path)
    want = goldens[case_id(case)]
    assert _stream_digests(case, path, _fill_ids) == want
    for batch_size in (1, 7, 64):
        assert _stream_digests(case, path, _loader_ids(batch_size)) == want
    # drop_last cuts each epoch's stream to its whole batches, nothing else.
    for view in _views(case, path):
        for epoch in range(2):
            view.set_epoch(epoch)
            full = _fill_ids(view)
            batches = list(DataLoader(view, 7, drop_last=True))
            assert all(len(batch) == 7 for batch in batches)
            assert [int(i) for b in batches for i in b.ids] == full[: len(full) // 7 * 7]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_a_fill_is_one_buffer_blocks_group(case, tmp_path):
    """Every fill but a worker's last holds exactly ``buffer_blocks`` blocks'
    rows, and the fills partition the worker's blocks."""
    path = _write(case, tmp_path)
    _kind, _layout, (tuples_per_block, buffer_blocks, _n_workers) = case
    seen: list[int] = []
    for view in _views(case, path):
        fills = list(view.fills())
        for fill in fills:
            blocks = np.unique(fill.ids // tuples_per_block)
            assert blocks.size <= buffer_blocks
            sizes = [view.reader.entries[int(b)].n_tuples for b in blocks]
            assert len(fill) == sum(sizes)  # whole blocks, each read once
        assert all(
            np.unique(f.ids // tuples_per_block).size == buffer_blocks for f in fills[:-1]
        )
        seen.extend(int(i) for f in fills for i in f.ids)
    assert sorted(seen) == list(range(_dataset(case[0]).n_tuples))


def test_fill_rows_carry_their_own_labels_and_features(tmp_path):
    """The permutation moves whole rows: label and features follow the id."""
    for kind in ("dense", "sparse"):
        dataset = _dataset(kind)
        case = (kind, "row", (40, 3, 1))
        for view in _views(case, _write(case, tmp_path)):
            for fill in view.fills():
                np.testing.assert_array_equal(fill.labels, dataset.y[fill.ids])
                got = fill.features_matrix()
                if kind == "sparse":
                    got, want = got.to_dense(), dataset.X.take_rows(fill.ids).to_dense()
                else:
                    want = dataset.X[fill.ids]
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_fills_are_the_shard_planners_fills(kind, n_workers, tmp_path):
    """Worker ``w``'s ``fills()`` are §5's simulated buffer fills — the plan
    the coordinator derives (``MultiProcessCorgiPile.worker_buffer_fills``) — row for
    row: same blocks per fill, same visit order, each row's own label and
    features.  So the fleet workers can read through ``fills()``."""
    from repro.core.distributed import MultiProcessCorgiPile

    dataset = _dataset(kind)
    case = (kind, "row", (33, 2, n_workers))
    path = _write(case, tmp_path)
    planner = MultiProcessCorgiPile.for_block_file(path, n_workers, 2, seed=SEED)
    for worker, view in enumerate(_views(case, path)):
        for epoch in range(2):
            view.set_epoch(epoch)
            fills = list(view.fills())
            planned = planner.worker_buffer_fills(epoch, worker)
            assert len(fills) == len(planned)
            for fill, (_group, indices) in zip(fills, planned):
                np.testing.assert_array_equal(fill.ids, indices)
                np.testing.assert_array_equal(fill.labels, dataset.y[indices])
                got = fill.features_matrix()
                if kind == "sparse":
                    got, want = got.to_dense(), dataset.X.take_rows(indices).to_dense()
                else:
                    want = dataset.X[indices]
                np.testing.assert_array_equal(got, want)


def test_fills_report_buffer_stats(tmp_path):
    from repro.obs import LoaderMetrics

    case = ("dense", "row", (40, 3, 1))
    path = _write(case, tmp_path)
    stats = LoaderMetrics("fills")
    with CorgiPileDataset(path, 3, seed=SEED, stats=stats) as view:
        sizes = [len(f) for f in view.fills()]
    assert stats.buffers_filled == stats.buffers_drained == len(sizes)
    assert stats.tuples_buffered == sum(sizes) == 430


if __name__ == "__main__":  # --regen, against the per-tuple parent checkout
    assert sys.argv[1:] == ["--regen"], "usage: test_loader_fills.py --regen"
    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            # That checkout's ``__iter__`` was the per-tuple ShuffleBuffer loop.
            recorded[case_id(case)] = _stream_digests(
                case, _write(case, tmp), lambda view: [record.tuple_id for record in view]
            )
    GOLDENS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDENS}")
