#!/usr/bin/env python
"""Perf-regression harness for the vectorized block-fused execution engine.

Times the scalar (per-tuple) and fused (vectorized) implementations of the
two hot paths — page decode and one standard-SGD epoch — and records
tuples/sec into the repo-root ``BENCH_kernels.json`` snapshot that travels
with the PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py --quick          # default
    PYTHONPATH=src python benchmarks/bench_kernels.py --full --seed 1
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --check  # CI gate

``--check`` exits non-zero if any fused kernel is slower than its scalar
baseline (``summary.min_speedup < 1``) — which includes the columnar decode
records, whose baseline is the *row fused* decode — or if the columnar
payload is not smaller than the row payload on either workload.  The CI
perf-smoke job runs this so a regression in the fused paths or the columnar
format fails the build instead of silently shipping.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import format_table, kernel_bench_rows, run_kernel_bench  # noqa: E402

SNAPSHOT_PATH = REPO_ROOT / "BENCH_kernels.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true", default=True,
        help="small workloads, seconds to run (default)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="larger workloads for more stable numbers",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of-N timing repeats (default 3)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any fused kernel is slower than scalar",
    )
    parser.add_argument(
        "--no-snapshot", action="store_true",
        help="skip writing the repo-root BENCH_kernels.json",
    )
    args = parser.parse_args(argv)

    doc = run_kernel_bench(quick=not args.full, seed=args.seed, repeats=args.repeats)
    title = f"kernel bench ({doc['config']}, seed={args.seed}, best of {args.repeats})"
    print(format_table(kernel_bench_rows(doc), title=title))
    summary = doc["summary"]
    print(
        f"epoch speedup (sparse): {summary['epoch_speedup']:.2f}x   "
        f"dense: {summary['epoch_dense_speedup']:.2f}x   "
        f"decode: {summary['decode_speedup']:.2f}x"
    )
    print(
        f"columnar decode vs row fused (sparse): "
        f"{summary['columnar_decode_speedup']:.2f}x   "
        f"dense: {summary['columnar_decode_dense_speedup']:.2f}x   "
        f"bytes ratio sparse: {summary['columnar_bytes_ratio_sparse']:.3f}   "
        f"dense: {summary['columnar_bytes_ratio_dense']:.3f}"
    )

    payload = json.dumps(doc, indent=2) + "\n"
    if not args.no_snapshot:
        SNAPSHOT_PATH.write_text(payload)
        print(f"wrote {SNAPSHOT_PATH}")

    if args.check:
        failures = []
        if summary["min_speedup"] < 1.0:
            failures.append(
                f"min fused/scalar speedup {summary['min_speedup']:.2f}x < 1.0x"
            )
        for cfg in ("sparse", "dense"):
            ratio = summary[f"columnar_bytes_ratio_{cfg}"]
            if ratio >= 1.0:
                failures.append(
                    f"columnar {cfg} payload is not smaller than row "
                    f"(ratio {ratio:.3f} >= 1)"
                )
        if failures:
            for problem in failures:
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
