#!/usr/bin/env python
"""Index-path bench for ``TRAIN ... WHERE`` (secondary B+tree indexes).

Two claims under test, both read off the executor's physical counters
(``query.extra["where"]["physical"]``) rather than the cost model:

1. **Reads scale with selectivity, not table size.**  With the key column
   clustered, a predicate matching a *fixed number of tuples* must touch
   roughly the same number of device pages no matter how large the table
   grows — the index-ordered fetch pays for qualifying pages only, while
   the heap underneath doubles.  ``--check`` enforces a bounded spread on
   ``device_page_reads`` across table sizes while the heap page count at
   least doubles, and that within one table the reads grow with
   selectivity.

2. **The planner flips at the selectivity extremes.**  A selective range
   over the indexed column must plan the index-ordered block fetch; a
   predicate matching everything must fall back to the sequential scan
   (whose cost is flat in selectivity).  ``--check`` enforces the flip at
   both ends on every table size.

Grid: sizes × selectivities over the bundled SUSY sample, physically
ordered by feature 0 (the indexed column) so qualifying pages are
contiguous, plus one fixed-width predicate per size for claim 1.

Every number is a planner estimate or a device-model page count
(``"clock": "simulated"`` in the snapshot): a device-model claim, not a
stopwatch — wall-clock performance is ``benchmarks/e2e`` only.  Results go
to the repo-root ``BENCH_index.json`` snapshot that travels with the PR; it
holds nothing host-dependent (the run's wall time is printed, not written),
so a re-run leaves the tree clean.

Usage::

    PYTHONPATH=src python benchmarks/bench_index.py --quick          # default
    PYTHONPATH=src python benchmarks/bench_index.py --full
    PYTHONPATH=src python benchmarks/bench_index.py --quick --check  # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.data import load, ordered_by_feature  # noqa: E402
from repro.db import MiniDB, TrainSpec  # noqa: E402
from repro.db.query import CreateIndexQuery, parse_predicate  # noqa: E402

SNAPSHOT_PATH = REPO_ROOT / "BENCH_index.json"

SELECTIVITIES = (0.05, 0.3, 1.0)
QUICK_SIZES = (1500, 3000)
FULL_SIZES = (1500, 3000, 6000)
FIXED_MATCH = 150  # claim-1 predicate width, in tuples
EPOCHS = 2


def _table(db: MiniDB, n_tuples: int):
    """One catalog table of ``n_tuples`` SUSY rows, clustered on f0 + indexed."""
    dataset = load("susy", seed=0)
    dataset = ordered_by_feature(dataset.subset(range(n_tuples)), 0, seed=0)
    info = db.create_table("t", dataset)
    db.create_index(CreateIndexQuery(name="ix_f0", table="t", column="f0"))
    return info, np.sort(np.asarray(dataset.X[:, 0], dtype=float))


def _run(db: MiniDB, predicate: str) -> dict:
    spec = TrainSpec(
        table="t",
        model="lr",
        strategy="corgipile",
        epochs=EPOCHS,
        lr=0.05,
        block_size=8 * 1024,
        buffer_fraction=0.1,
        seed=0,
        where=parse_predicate(predicate),
    )
    decision = db.train(spec).query.extra["where"]
    return {
        "predicate": predicate,
        "n_matching": decision["n_matching"],
        "n_tuples": decision["n_tuples"],
        "selectivity": round(decision["selectivity"], 4),
        "n_qualifying_pages": decision["n_qualifying_pages"],
        "n_heap_pages": decision["n_heap_pages"],
        "fetch": decision["fetch"],
        "est_index_ms": round(decision["est_index_s"] * 1e3, 4),
        "est_scan_ms": round(decision["est_scan_s"] * 1e3, 4),
        **decision["physical"],
    }


def run_grid(sizes: tuple[int, ...]) -> dict:
    points = []
    fixed_points = []
    for n_tuples in sizes:
        db = MiniDB(page_bytes=1024)
        _info, sorted_f0 = _table(db, n_tuples)
        for sel in SELECTIVITIES:
            k = max(1, round(sel * n_tuples))
            threshold = float(sorted_f0[n_tuples - k])
            point = _run(db, f"f0 >= {threshold!r}")
            point.update(size=n_tuples, target_selectivity=sel, kind="selectivity")
            points.append(point)
            print(
                f"n={n_tuples:5d} sel={sel:4.0%} matched={point['n_matching']:5d} "
                f"fetch={point['fetch']:5s} device_page_reads={point['device_page_reads']:5d} "
                f"heap_pages={point['n_heap_pages']}"
            )
        # Claim 1: a fixed-width slice of the key range — same matched
        # tuples on every table size, so reads must not follow the heap.
        lo, hi = float(sorted_f0[n_tuples - FIXED_MATCH]), float(sorted_f0[n_tuples - 1])
        point = _run(db, f"f0 >= {lo!r} AND f0 <= {hi!r}")
        point.update(size=n_tuples, target_matching=FIXED_MATCH, kind="fixed_width")
        fixed_points.append(point)
        print(
            f"n={n_tuples:5d} fixed-width matched={point['n_matching']:5d} "
            f"fetch={point['fetch']:5s} device_page_reads={point['device_page_reads']:5d} "
            f"heap_pages={point['n_heap_pages']}"
        )
    return {
        "bench": "index",
        "clock": "simulated",
        "dataset": "susy (ordered by f0)",
        "epochs": EPOCHS,
        "sizes": list(sizes),
        "selectivities": list(SELECTIVITIES),
        "fixed_match": FIXED_MATCH,
        "points": points,
        "fixed_width_points": fixed_points,
    }


def check(results: dict) -> list[str]:
    failures = []
    points = results["points"]
    by_size: dict[int, dict[float, dict]] = {}
    for p in points:
        by_size.setdefault(p["size"], {})[p["target_selectivity"]] = p

    for size, sels in sorted(by_size.items()):
        low, mid, full = sels[min(SELECTIVITIES)], sels[0.3], sels[max(SELECTIVITIES)]
        # Claim 2: planner flips at the extremes.
        if low["fetch"] != "index":
            failures.append(
                f"n={size}: {min(SELECTIVITIES):.0%} selectivity planned "
                f"{low['fetch']!r}, expected the index-ordered fetch"
            )
        if full["fetch"] != "scan":
            failures.append(
                f"n={size}: 100% selectivity planned {full['fetch']!r}, "
                "expected the sequential scan"
            )
        # Claim 1a: within one table, device reads grow with selectivity.
        if not low["device_page_reads"] < mid["device_page_reads"]:
            failures.append(
                f"n={size}: device_page_reads {low['device_page_reads']} at "
                f"{min(SELECTIVITIES):.0%} !< {mid['device_page_reads']} at 30%"
            )

    # Claim 1b: fixed matched width across growing tables — reads flat
    # (spread <= 1.5x) while the heap at least doubles end to end.
    fixed = [p for p in results["fixed_width_points"] if p["fetch"] == "index"]
    if len(fixed) < len(results["sizes"]):
        failures.append(
            "fixed-width predicate did not plan the index fetch on every size: "
            + ", ".join(f"n={p['size']}:{p['fetch']}" for p in results["fixed_width_points"])
        )
    else:
        reads = [p["device_page_reads"] for p in fixed]
        heap = [p["n_heap_pages"] for p in fixed]
        if max(reads) > 1.5 * min(reads):
            failures.append(
                f"fixed-width device_page_reads spread {min(reads)}..{max(reads)} "
                "exceeds 1.5x: reads are following table size, not selectivity"
            )
        if heap[-1] < 2 * heap[0]:
            failures.append(
                f"grid never grew the heap (pages {heap[0]} -> {heap[-1]}): "
                "the scaling claim was not actually exercised"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", default=True,
        help="2 table sizes x 3 selectivities (default)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="adds the full 6000-tuple table",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless reads scale with selectivity (not table "
        "size) and the planner flips index->scan across the grid",
    )
    parser.add_argument(
        "--no-snapshot", action="store_true",
        help="skip writing the repo-root BENCH_index.json",
    )
    args = parser.parse_args(argv)

    sizes = FULL_SIZES if args.full else QUICK_SIZES
    t0 = time.perf_counter()
    results = run_grid(sizes)
    results["mode"] = "full" if args.full else "quick"
    wall_s = time.perf_counter() - t0

    if not args.no_snapshot:
        SNAPSHOT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    n_points = len(results["points"]) + len(results["fixed_width_points"])
    print(f"\n{n_points} grid points in {wall_s:.2f}s -> {SNAPSHOT_PATH}")

    if args.check:
        failures = check(results)
        if failures:
            print("\nINDEX GATE FAILED:")
            for f in failures:
                print(f"  {f}")
            return 1
        fixed = results["fixed_width_points"]
        reads = [p["device_page_reads"] for p in fixed]
        heap = [p["n_heap_pages"] for p in fixed]
        print(
            f"index gate OK: fixed-width reads {min(reads)}..{max(reads)} "
            f"while heap grew {heap[0]} -> {heap[-1]} pages; planner flipped "
            "index->scan on every size"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
