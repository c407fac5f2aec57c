"""Deterministic DML workload shared by the SIGKILL recovery test, the
index-log crash matrix and the lazy-view property test.

The parent test imports :func:`make_table` / :func:`apply_ops` to replay
the exact op stream; run as a script (``python tests/_dml_workload.py
<data_dir> <n_ops>``) it becomes the child process the test SIGKILLs
mid-stream.  Determinism matters: every op — including the RNG draws —
is a pure function of ``(seed, op index, table state)``, so the replay
walks through the same sequence of index states the child walked through
before it died.
"""

from __future__ import annotations

import sys
from pathlib import Path

N_FEATURES = 6
READY_AT = 30  # ops completed before the child advertises itself killable


def make_table(data_dir=None, page_bytes: int = 512, sparse: bool = False, n_rows: int = 150):
    """A small indexed table; ``data_dir`` turns on ``.idx`` persistence."""
    from repro.data import make_binary_dense, make_binary_sparse
    from repro.db.catalog import Catalog

    catalog = Catalog(
        page_bytes=page_bytes,
        data_dir=None if data_dir is None else Path(data_dir),
    )
    if sparse:
        dataset = make_binary_sparse(n_rows, N_FEATURES, nnz_per_row=3, seed=5)
    else:
        dataset = make_binary_dense(n_rows, N_FEATURES, separation=1.0, seed=5)
    info = catalog.create_table("t", dataset)
    catalog.create_index("t", "ix", "f0")
    return catalog, info


def apply_ops(info, n_ops: int, seed: int = 7, progress=None) -> None:
    """``n_ops`` of interleaved INSERT/DELETE/UPDATE against ``info``.

    Each catalog call makes its index ops durable before returning, so
    after op ``k`` the ``.idx`` base + its log replay to exactly the tree at
    state ``k``.
    """
    import numpy as np

    from repro.data import SparseRow

    rng = np.random.default_rng(seed)
    for i in range(n_ops):
        choice = i % 3
        if choice == 0:
            label = 1.0 if i % 2 else -1.0
            features = rng.standard_normal(N_FEATURES)
            if info.is_sparse:
                features[1::2] = 0.0
                nz = np.flatnonzero(features)
                features = SparseRow(nz, features[nz], N_FEATURES)
            info.insert_rows([(label, features)])
        elif choice == 1 and info.n_tuples > 20:
            position = int(rng.integers(info.n_tuples))
            info.delete_rids([info.heap.rid_of(position)])
        else:
            position = int(rng.integers(info.n_tuples))
            info.update_rids(
                [info.heap.rid_of(position)], [("f0", float(rng.standard_normal()))]
            )
        if progress is not None:
            progress(i + 1)


def main(argv: list[str]) -> int:
    data_dir, n_ops = Path(argv[1]), int(argv[2])

    def progress(completed: int) -> None:
        if completed == READY_AT:
            (data_dir / "ready").write_text(str(completed))

    _catalog, info = make_table(data_dir)
    apply_ops(info, n_ops, progress=progress)
    (data_dir / "done").write_text(str(n_ops))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
