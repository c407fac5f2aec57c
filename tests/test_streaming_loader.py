"""The loaders are clients of ``fills()``: what the plain training loop learns
over ``DataLoader`` and what ``MultiWorkerLoader`` hands out are pinned to
the per-tuple loader they replaced.

* **Goldens** (``tests/goldens/streaming_loader.json``) recorded at
  ``e029c8e``, the last commit whose ``DataLoader`` exploded every fill into
  ``TrainingTuple``\\ s and ``collate``\\ d them back, by running this file
  against that checkout (``PYTHONPATH=<parent>/src python
  tests/test_streaming_loader.py --regen``; that checkout's batches carried
  their ids as ``Batch.tuple_ids``, which is what ``_ids`` read there):

  - the sha256 of the weights the loop below reaches in 2 epochs over
    ``DataLoader``, for dense / sparse / softmax row block files x per-tuple
    fused at batch size 1 and 32 and mini-batch at 7 and 32 (the loop is
    Section 5's ``train(loader, model)``: one ``apply_unit`` per batch, no
    optimiser for per-tuple SGD, plain ``SGD`` for mini-batch, softmax
    labels as ``int64``; the goldens were recorded through the library
    trainer that ran exactly this loop);
  - the sha256 of ``MultiWorkerLoader``'s 2-epoch id stream, per kind and
    ``(n_workers, buffer_blocks_per_worker, batch_size)``.

  The file also keeps the entries of the retired columnar block-file layout,
  each equal to its row twin.  Never regenerate them from current code.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import CorgiPileDataset, DataLoader, MultiWorkerLoader
from repro.data import make_binary_dense, make_binary_sparse, make_multiclass_dense
from repro.ml import SGD, ExponentialDecay, LogisticRegression, SoftmaxRegression
from repro.ml.trainer import apply_unit
from repro.storage import write_block_file

GOLDENS = Path(__file__).parent / "goldens" / "streaming_loader.json"
SEED = 7
TUPLES_PER_BLOCK = 25
KINDS = ("dense", "sparse", "softmax")
LAYOUTS = ("row",)
#: name -> (per_tuple, batch_size).
MODES = {"fused1": (True, 1), "fused32": (True, 32), "mini7": (False, 7), "mini32": (False, 32)}
#: (n_workers, buffer_blocks_per_worker, batch_size)
WORKER_GEOMETRIES = [(3, 2, 32), (2, 1, 7), (4, 3, 64)]

WEIGHT_CASES = [(k, layout, m) for k in KINDS for layout in LAYOUTS for m in MODES]
ID_CASES = [(k, layout, g) for k in ("dense", "sparse") for layout in LAYOUTS for g in WORKER_GEOMETRIES]


def weight_id(case) -> str:
    return "-".join(case)


def id_stream_id(case) -> str:
    kind, layout, geometry = case
    return f"{kind}-{layout}-" + "x".join(map(str, geometry))


def _dataset(kind: str):
    if kind == "dense":
        return make_binary_dense(430, 6, separation=1.2, seed=5)
    if kind == "sparse":
        return make_binary_sparse(370, 60, nnz_per_row=6, separation=1.0, seed=9)
    return make_multiclass_dense(400, 8, 3, separation=2.5, seed=17)


def _model(kind: str, dataset):
    if kind == "softmax":
        return SoftmaxRegression(dataset.n_features, 3)
    return LogisticRegression(dataset.n_features)


def _write(kind: str, layout: str, directory) -> Path:
    path = Path(directory) / f"{kind}-{layout}.blocks"
    write_block_file(_dataset(kind), path, TUPLES_PER_BLOCK)
    return path


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _ids(batch) -> np.ndarray:
    return batch.ids


def _weights_digest(case, directory) -> str:
    kind, layout, mode = case
    per_tuple, batch_size = MODES[mode]
    dataset = _dataset(kind)
    model = _model(kind, dataset)
    optimizer = None if per_tuple else SGD(model)
    int_labels = kind == "softmax" and not per_tuple
    schedule = ExponentialDecay(0.05, 0.9)
    with CorgiPileDataset(_write(kind, layout, directory), 3, seed=SEED) as view:
        for epoch in range(2):
            view.set_epoch(epoch)
            lr = float(schedule(epoch))
            for batch in DataLoader(view, batch_size=batch_size):
                y = batch.labels.astype(np.int64) if int_labels else batch.labels
                apply_unit(model, optimizer, batch.features_matrix(), y, lr)
    return _digest(np.asarray(model.parameter_vector(), dtype=np.float64))


def _id_stream_digest(case, directory) -> str:
    kind, layout, (n_workers, buffer_blocks, batch_size) = case
    ids = []
    with MultiWorkerLoader(
        _write(kind, layout, directory), n_workers, buffer_blocks, batch_size=batch_size, seed=SEED
    ) as loader:
        for epoch in range(2):
            loader.set_epoch(epoch)
            ids.extend(np.asarray(_ids(batch), dtype=np.int64) for batch in loader)
    return _digest(np.concatenate(ids))


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", WEIGHT_CASES, ids=weight_id)
def test_streaming_weights_equal_the_per_tuple_loaders(case, goldens, tmp_path):
    assert _weights_digest(case, tmp_path) == goldens["weights"][weight_id(case)]


@pytest.mark.parametrize("case", WEIGHT_CASES, ids=weight_id)
def test_streaming_weights_on_the_numpy_kernels(case, goldens, tmp_path, numpy_kernels):
    # One golden set covers both GLM loops: the fallback gives the same bits.
    assert _weights_digest(case, tmp_path) == goldens["weights"][weight_id(case)]


@pytest.mark.parametrize("case", ID_CASES, ids=id_stream_id)
def test_multiworker_id_stream_equals_the_per_tuple_loaders(case, goldens, tmp_path):
    assert _id_stream_digest(case, tmp_path) == goldens["multiworker_ids"][id_stream_id(case)]


if __name__ == "__main__":  # --regen, against the per-tuple parent checkout
    assert sys.argv[1:] == ["--regen"], "usage: test_streaming_loader.py --regen"
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {
            "weights": {weight_id(c): _weights_digest(c, tmp) for c in WEIGHT_CASES},
            "multiworker_ids": {id_stream_id(c): _id_stream_digest(c, tmp) for c in ID_CASES},
        }
    GOLDENS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(WEIGHT_CASES)} + {len(ID_CASES)} cases to {GOLDENS}")
