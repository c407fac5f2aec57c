"""Shared fixtures: small, fast datasets and layouts."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.data import (
    BlockLayout,
    Dataset,
    clustered_by_label,
    make_binary_dense,
    make_binary_sparse,
    make_multiclass_dense,
)
from repro.data import sparse
from repro.faults import InjectedCrash
from repro.ml import kernels, trainer
from repro.storage import TupleBatch, columnar


@pytest.fixture(scope="session")
def dense_binary() -> Dataset:
    """600 tuples, 12 features, learnable, shuffled order."""
    return make_binary_dense(600, 12, separation=1.2, seed=11)


@pytest.fixture(scope="session")
def sparse_binary() -> Dataset:
    """300 sparse tuples over 150 features."""
    return make_binary_sparse(300, 150, nnz_per_row=12, separation=1.0, seed=13)


@pytest.fixture(scope="session")
def multiclass_dense() -> Dataset:
    """500 tuples, 4 classes."""
    return make_multiclass_dense(500, 16, 4, separation=2.5, seed=17)


@pytest.fixture()
def numpy_kernels(monkeypatch):
    """Every compiled loop on its numpy / Python twin, as on a host without
    ``cc``: the GLM step and sparse dot, the columnar run decode and the CSR
    row gather."""
    monkeypatch.setattr(kernels, "_LIB", None)
    monkeypatch.setattr(kernels, "IMPL", "numpy")
    monkeypatch.setattr(columnar, "_LIB", None)
    monkeypatch.setattr(sparse, "_LIB", None)
    return kernels


@pytest.fixture()
def clustered_binary(dense_binary: Dataset) -> Dataset:
    return clustered_by_label(dense_binary, seed=1)


@pytest.fixture()
def layout_600() -> BlockLayout:
    """600 tuples in 30 blocks of 20."""
    return BlockLayout(600, 20)


def assert_is_permutation(order: np.ndarray, n: int) -> None:
    assert order.shape == (n,)
    assert sorted(order.tolist()) == list(range(n))


def pass_ids(op) -> list[int]:
    """The tuple ids of one operator pass, drained a batch at a time."""
    return [int(i) for batch in iter(op.next_batch, None) for i in batch.ids]


def per_page_run(pool, page_ids):
    """A block read as one ``get_batch_traced`` per page, then one ``concat``:
    the reference ``BufferPool.get_run`` must answer as."""
    pages, hits = [], []
    for page_id in page_ids:
        batch, hit = pool.get_batch_traced(page_id)
        pages.append(batch)
        hits.append(hit)
    return TupleBatch.concat(pages), hits


class CopyCountingLib:
    """The compiled library, counting the ``columnar_run`` calls that write
    arrays (copy passes) apart from the check passes."""

    def __init__(self, lib):
        self.lib, self.copies = lib, 0

    def columnar_run(self, spans, k, sparse, d, plan, outs):
        self.copies += outs is not None
        return self.lib.columnar_run(spans, k, sparse, d, plan, outs)

    def __getattr__(self, name):
        return getattr(self.lib, name)


@contextlib.contextmanager
def killed_at_tuple(n: int):
    """Inside the block, a ``Trainer`` run dies (``InjectedCrash``) at its
    ``n``-th tuple, as a killed process would: the update unit holding it is
    cut short there, and what the run did since its last save is lost, for
    the run over the same checkpoint to replay."""
    real, seen = trainer.apply_unit, 0

    def apply_unit(model, optimizer, X, y, lr, order):
        nonlocal seen
        if seen + len(order) > n:
            if n > seen:
                real(model, optimizer, X, y, lr, order[: n - seen])
            raise InjectedCrash(f"killed at tuple {n}")
        seen += len(order)
        real(model, optimizer, X, y, lr, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "apply_unit", apply_unit)
        yield
