"""One block-file fill: ``CorgiPileDataset.fills()`` is what ``__iter__`` explodes.

* **Goldens** (``tests/goldens/loader_order.json``) recorded at the last
  commit whose ``__iter__`` ran the per-tuple ``ShuffleBuffer`` loop
  (``8d1c4b9``), by running this file against that checkout
  (``PYTHONPATH=<parent>/src python tests/test_loader_fills.py --regen``):
  the sha256 of the 2-epoch tuple-id stream of every worker, for dense/sparse
  × row/columnar × four ``(tuples_per_block, buffer_blocks, n_workers)``
  geometries (a buffer of several blocks, a buffer that does not divide the
  worker's share, a one-block buffer, a buffer larger than the file).  Ids
  are integers, so the goldens do not depend on the platform.
* ``fills()`` and ``__iter__`` are both held to them, fill sizes to the
  ``buffer_blocks`` grouping, and a column-pruned fill to the bytes it may
  read.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import CorgiPileDataset
from repro.data import make_binary_dense, make_binary_sparse
from repro.storage import write_block_file

GOLDENS = Path(__file__).parent / "goldens" / "loader_order.json"
SEED = 7
#: (tuples_per_block, buffer_blocks, n_workers)
GEOMETRIES = [(40, 3, 1), (33, 4, 2), (50, 1, 3), (40, 100, 1)]
CASES = [
    (kind, layout, geometry)
    for kind in ("dense", "sparse")
    for layout in ("row", "columnar")
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
    kind, layout, (tuples_per_block, _buffer_blocks, _n_workers) = case
    path = Path(directory) / f"{case_id(case)}.blocks"
    write_block_file(_dataset(kind), path, tuples_per_block, layout=layout)
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


def _iter_ids(view) -> list[int]:
    return [record.tuple_id for record in view]


def _fill_ids(view) -> list[int]:
    return [int(i) for fill in view.fills() for i in fill.ids]


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_iter_and_fills_reproduce_the_recorded_id_stream(case, goldens, tmp_path):
    path = _write(case, tmp_path)
    want = goldens[case_id(case)]
    assert _stream_digests(case, path, _iter_ids) == want
    assert _stream_digests(case, path, _fill_ids) == want


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
        case = (kind, "columnar", (40, 3, 1))
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
    the coordinator derives (``ShardPlanner.worker_buffer_fills``) — row for
    row: same blocks per fill, same visit order, each row's own label and
    features.  So the fleet workers can read through ``fills()``."""
    from repro.parallel import ShardPlanner

    dataset = _dataset(kind)
    case = (kind, "row", (33, 2, n_workers))
    path = _write(case, tmp_path)
    planner = ShardPlanner.for_block_file(path, n_workers, 2, seed=SEED)
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


def test_pruned_fill_never_reads_the_ids_chunk(tmp_path):
    from repro.ml import training_columns

    case = ("sparse", "columnar", (40, 3, 1))
    path = _write(case, tmp_path)
    for full in _views(case, path):
        want = list(full.fills())
        full_bytes = full.reader.bytes_read
    seen = []
    for pruned in _views(case, path):
        read_block_batch = pruned.reader.read_block_batch

        def spy(block_id, columns=None):
            batch = read_block_batch(block_id, columns=columns)
            seen.append(batch.available_columns)
            return batch

        pruned.reader.read_block_batch = spy
        got = list(pruned.fills(columns=training_columns(True)))
        ids_bytes = sum(
            ref.length for e in pruned.reader.entries for ref in e.chunks if ref.name == "ids"
        )
        assert ids_bytes > 0
        assert pruned.reader.bytes_read <= full_bytes - ids_bytes
    assert seen and all(cols == frozenset(training_columns(True)) for cols in seen)
    # Same rows in the same order — only the ids were never read.
    assert [len(f) for f in got] == [len(f) for f in want]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.ids, b.ids)


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
            recorded[case_id(case)] = _stream_digests(case, _write(case, tmp), _iter_ids)
    GOLDENS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDENS}")
