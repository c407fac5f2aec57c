"""The PyTorch-style pipeline: block files, CorgiPileDataset, DataLoader.

Mirrors the paper's Section 5 listing::

    train_dataset = CorgiPileDataset(dataset_path, block_index_path, ...)
    train_loader  = DataLoader(train_dataset, ...)
    train(train_loader, model, ...)

Materialises a clustered multiclass dataset as an on-disk block file with a
sidecar index, streams it through the two-level shuffle with a small buffer,
and trains an MLP from the loader batches — ``TupleBatch``\ es cut from the
dataset's shuffled buffer fills, read as ``features_matrix()`` / ``labels``
— including a simulated 4-worker data-parallel epoch where each worker
reads its own random block slice.

Run:  python examples/pytorch_style_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import CorgiPileDataset, DataLoader
from repro.data import clustered_by_label, make_multiclass_dense
from repro.ml import MLPClassifier, SGD
from repro.storage import write_block_file


def train_epochs(loader_factory, model, epochs: int, lr: float) -> None:
    optimizer = SGD(model)
    for epoch in range(epochs):
        for batch in loader_factory(epoch):
            grads = model.gradient(batch.features_matrix(), batch.labels.astype(np.int64))
            optimizer.step(grads, lr * 0.95**epoch)


def main() -> None:
    dataset = make_multiclass_dense(4000, 32, 8, separation=2.5, seed=0)
    train, test = dataset.split(0.9, seed=1)
    clustered = clustered_by_label(train, seed=0)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train.blocks"
        entries = write_block_file(clustered, path, tuples_per_block=40)
        print(f"wrote {len(entries)} blocks to {path.name} "
              f"({sum(e.length for e in entries)} bytes + index)")

        # ---- single-process CorgiPile --------------------------------
        model = MLPClassifier(32, 24, 8, seed=0)
        with CorgiPileDataset(path, buffer_blocks=9, seed=0) as ds:

            def loader(epoch: int) -> DataLoader:
                ds.set_epoch(epoch)
                return DataLoader(ds, batch_size=32)

            train_epochs(loader, model, epochs=8, lr=0.1)
        acc = model.score(test.X, test.y)
        print(f"single-process CorgiPile:  test accuracy {acc:.4f}")

        # ---- simulated 4-worker data-parallel epoch ------------------
        model_mp = MLPClassifier(32, 24, 8, seed=0)
        workers = [
            CorgiPileDataset(path, buffer_blocks=2, seed=0, worker_id=w, n_workers=4)
            for w in range(4)
        ]
        optimizer = SGD(model_mp)
        for epoch in range(8):
            loaders = []
            for ds in workers:
                ds.set_epoch(epoch)
                loaders.append(iter(DataLoader(ds, batch_size=8)))
            # Each step: every worker contributes bs/PN tuples; gradients
            # are averaged — the AllReduce of Section 5.1 step 4.
            while True:
                batches = []
                for it in loaders:
                    batch = next(it, None)
                    if batch is not None and len(batch) == 8:
                        batches.append(batch)
                if len(batches) < 4:
                    break
                grads_sum = None
                for batch in batches:
                    grads = model_mp.gradient(
                        batch.features_matrix(), batch.labels.astype(np.int64)
                    )
                    if grads_sum is None:
                        grads_sum = grads
                    else:
                        for key in grads_sum:
                            grads_sum[key] += grads[key]
                for key in grads_sum:
                    grads_sum[key] /= len(batches)
                optimizer.step(grads_sum, 0.1 * 0.95**epoch)
        for ds in workers:
            ds.close()
        acc_mp = model_mp.score(test.X, test.y)
        print(f"4-worker CorgiPile (DDP):  test accuracy {acc_mp:.4f}")
        print(f"order-equivalence gap:     {abs(acc - acc_mp):.4f}")


if __name__ == "__main__":
    main()
