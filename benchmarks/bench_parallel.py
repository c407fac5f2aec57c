#!/usr/bin/env python
"""Scaling bench for the multi-process data-parallel engine.

Trains the dense quick config at 1/2/4 real worker processes (epoch and
sync aggregation) and records per-epoch walls, tuple throughput, measured
coordination overhead, and the epoch-throughput speedup vs one worker into
the repo-root ``BENCH_parallel.json`` snapshot that travels with the PR.

Every speedup carries a ``speedup_source`` field: ``measured`` when the host
has at least as many cores as workers, ``modeled`` otherwise (single-core
hosts serialise the workers, so the bench measures compute and coordination
separately and models only the division of compute across cores — see
``repro.bench.parallelbench`` for the accounting).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py --quick          # default
    PYTHONPATH=src python benchmarks/bench_parallel.py --full --seed 1
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick --check  # CI gate

``--check`` exits non-zero if the headline epoch-mode speedup at the
largest worker count falls below 2x.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import format_table, parallel_bench_rows, run_parallel_bench  # noqa: E402

SNAPSHOT_PATH = REPO_ROOT / "BENCH_parallel.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true", default=True,
        help="small dense workload, seconds to run (default)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="larger workload for more stable numbers",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if the 4-worker epoch speedup is below 2x",
    )
    parser.add_argument(
        "--no-snapshot", action="store_true",
        help="skip writing the repo-root BENCH_parallel.json",
    )
    args = parser.parse_args(argv)

    doc = run_parallel_bench(quick=not args.full, seed=args.seed)
    summary = doc["summary"]
    print(
        format_table(
            parallel_bench_rows(doc),
            title=(
                f"parallel scaling ({doc['config']}, seed={args.seed}, "
                f"host_cores={doc['host_cores']})"
            ),
        )
    )
    print(
        f"epoch-mode speedup at {summary['headline_workers']} workers: "
        f"{summary['epoch_speedup_at_max_workers']:.2f}x "
        f"({summary['speedup_source']})"
    )

    payload = json.dumps(doc, indent=2) + "\n"
    if not args.no_snapshot:
        SNAPSHOT_PATH.write_text(payload)
        print(f"wrote {SNAPSHOT_PATH}")

    if args.check and summary["epoch_speedup_at_max_workers"] < 2.0:
        print(
            f"SCALING REGRESSION: epoch speedup at {summary['headline_workers']} "
            f"workers {summary['epoch_speedup_at_max_workers']:.2f}x < 2.0x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
