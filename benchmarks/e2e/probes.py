"""Probes beside the statement loops: kernel ceiling, space, CLI, obs.

None of these feed an end-to-end metric; they give the per-layer numbers a
statement loop cannot: what the epoch kernel does alone on the workload's
own shape, what the storage formats cost in space, what one CLI invocation
costs, and how much of a statement the program's *own* ``repro.obs`` spans
already cover.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = [
    "kernel_ceiling",
    "bytes_per_user_byte",
    "cli_costs",
    "obs_coverage",
    "worker_split",
]

#: SGDOperator's fused chunk: the in-DB path hands step_block 256 rows at a
#: time, so the standalone ceiling is measured at the same granularity.
FUSE_CHUNK = 256
MIN_SAMPLE_S = 0.010
N_SAMPLES = 15


def kernel_ceiling(dataset, model_name: str, seed: int, lr: float = 0.01) -> dict:
    """``step_block`` driven directly over the workload's own rows.

    Rows are drawn in a seeded random order — the label mix the shuffle
    delivers, not the clustered storage order: the hinge kernel skips the
    update when the margin holds, so a single-label run is not the same
    work.  Each sample is one pass over enough rows to last >= 10 ms (the
    ``bench_kernels --quick`` problem was 27 us samples, 3 repeats);
    returns tuples/s from the median and from the fastest sample.
    """
    from repro.data.sparse import SparseMatrix
    from repro.ml.models.linear import LinearSVM, LogisticRegression

    cls = {"svm": LinearSVM, "lr": LogisticRegression}[model_name]
    X, y = dataset.X, np.asarray(dataset.y, dtype=np.float64)
    n_total = dataset.n_tuples
    sparse = isinstance(X, SparseMatrix)
    visit = np.random.default_rng(seed).permutation(n_total)

    def chunks(n_rows: int):
        out = []
        for lo in range(0, n_rows, FUSE_CHUNK):
            rows = visit[lo : lo + FUSE_CHUNK]
            out.append((X.take_rows(rows) if sparse else X[rows], y[rows]))
        return out

    def one_pass(parts) -> float:
        model = cls(dataset.n_features)
        t0 = time.perf_counter()
        for Xc, yc in parts:
            model.step_block(Xc, yc, lr)
        return time.perf_counter() - t0

    n_rows = min(n_total, 4096)
    parts = chunks(n_rows)
    one_pass(parts)  # warm the kernel's first call
    while one_pass(parts) < MIN_SAMPLE_S and n_rows < n_total:
        n_rows = min(n_total, n_rows * 2)
        parts = chunks(n_rows)
    samples = [one_pass(parts) for _ in range(N_SAMPLES)]
    return {
        "tuples_per_s": n_rows / statistics.median(samples),
        "tuples_per_s_best": n_rows / min(samples),
        "rows_per_sample": n_rows,
        "sample_ms_min": min(samples) * 1000.0,
        "n_samples": len(samples),
    }


def bytes_per_user_byte(tables, dataset, table_bytes: int | None = None) -> float:
    """Stored bytes (heap pages + index files) per byte of user data.

    User data is 8 bytes per label and per stored feature value (the
    non-zeros of a sparse row), so a dense row table reads ~1.1, a columnar
    sparse table shows what its encodings save or cost, and an index shows
    up as the space a faster WHERE was bought with.
    """
    from repro.data.sparse import SparseMatrix

    values = dataset.X.nnz if isinstance(dataset.X, SparseMatrix) else dataset.X.size
    user = 8.0 * (dataset.n_tuples + values)
    stored = float(table_bytes or 0)
    for table in tables:
        stored += table.heap.total_bytes
        for index in table.indexes.values():
            if index.path is not None and Path(index.path).exists():
                stored += Path(index.path).stat().st_size
            else:  # memory-only index: key + RID per entry
                stored += index.tree.n_entries * 16
    return stored / user


def cli_costs(src_dir: Path, work_dir: Path) -> dict:
    """Per-invocation wall of the third entry point (``python -m repro``)."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))

    def wall(args: list[str]) -> float:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env, cwd=work_dir, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
        )
        return time.perf_counter() - t0

    return {
        "startup_s": statistics.median(wall(["--help"]) for _ in range(3)),
        "train_s": statistics.median(
            wall(["train", "--dataset", "higgs", "--epochs", "3"]) for _ in range(2)
        ),
    }


def obs_coverage(spans) -> dict:
    """Call paths and leaf-span seconds of the program's own obs spans.

    Simulated-clock spans (``timeline.epoch``) count as call paths but not
    as covered wall time — they are a device model, not a stopwatch.
    """
    by_id = {s.span_id: s for s in spans}
    has_child = {s.parent_id for s in spans if s.parent_id is not None}

    def path(span) -> tuple:
        names = [span.name]
        parent = span.parent_id
        while parent is not None and parent in by_id and len(names) < 16:
            names.append(by_id[parent].name)
            parent = by_id[parent].parent_id
        return tuple(reversed(names))

    # Spans shipped home by worker processes overlap each other in time, so
    # only this process's own leaves count towards covered wall.
    leaf_s = sum(
        s.duration_s
        for s in spans
        if s.span_id not in has_child
        and s.attrs.get("clock") != "simulated"
        and "worker" not in s.attrs
    )
    return {"call_paths": len({path(s) for s in spans}), "leaf_s": leaf_s}


def worker_split(spans, root_name: str) -> dict | None:
    """How the spawned workers of one engine spent their lifetime.

    Workers cannot be wrapped from the driver's process, but they ship their
    own obs spans home: one ``root_name`` span per worker (its whole loop)
    and one ``parallel.barrier_wait`` span per rendezvous.  Returns the mean
    over workers of lifetime, time blocked at barriers, and the rest (block
    reads + kernel) — so ``statement wall = overhead + work + barrier`` with
    ``overhead = wall - lifetime`` (spawn, block-file materialisation,
    teardown).  ``None`` when the engine did not run.
    """
    roots = [s for s in spans if s.name == root_name]
    if not roots:
        return None
    waits = [s for s in spans if s.name == "parallel.barrier_wait"]
    lifetime, blocked = [], []
    for root in roots:
        worker = root.attrs.get("worker")
        lifetime.append(root.duration_s)
        blocked.append(
            sum(
                w.duration_s
                for w in waits
                if w.attrs.get("worker") == worker and root.start <= w.start and w.end <= root.end
            )
        )
    life, wait = statistics.fmean(lifetime), statistics.fmean(blocked)
    return {"lifetime_s": life, "barrier_wait_s": wait, "work_s": life - wait}
