#!/usr/bin/env python
"""Model-hopper grid bench: S models for the price of one data pass.

Trains the quick S=4 learning-rate grid through the hop schedule, times
every (slot, worker) work unit, and records the modeled critical-path wall
against the cost of a single solo data pass into
the repo-root ``BENCH_mop.json`` snapshot that travels with the PR.

The wall is a *modeled critical path* (sum over slots of the slowest unit
in each slot) from bit-exact serial execution, so the number is stable on
single-core CI hosts — ``wall_source`` in the document says so.  The bench
also re-trains every config solo and asserts bit-identical weights.

Usage::

    PYTHONPATH=src python benchmarks/bench_mop.py --quick          # default
    PYTHONPATH=src python benchmarks/bench_mop.py --full --seed 1
    PYTHONPATH=src python benchmarks/bench_mop.py --quick --check  # CI gate

``--check`` exits non-zero if the S=4 grid costs more than 1.4x one data
pass, or if any config's weights diverge from its solo run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import format_table, mop_bench_rows, run_mop_bench  # noqa: E402

SNAPSHOT_PATH = REPO_ROOT / "BENCH_mop.json"


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
        help="exit non-zero if the grid costs more than the gate ratio of "
        "one data pass, or any config diverges from its solo run",
    )
    parser.add_argument(
        "--no-snapshot", action="store_true",
        help="skip writing the repo-root BENCH_mop.json",
    )
    args = parser.parse_args(argv)

    doc = run_mop_bench(quick=not args.full, seed=args.seed)
    summary = doc["summary"]
    print(
        format_table(
            mop_bench_rows(doc),
            title=(
                f"model-hopper grid ({doc['config']}, S={summary['n_models']} "
                f"models, seed={args.seed})"
            ),
        )
    )
    print(
        f"grid wall {summary['hopper_wall_s']:.3f}s vs one data pass "
        f"{summary['one_pass_wall_s']:.3f}s -> {summary['overhead_vs_one_pass']:.2f}x "
        f"(gate {summary['gate_ratio']}x, schedule bubble "
        f"{summary['schedule_bubble_ratio']}x, {summary['wall_source']}); "
        f"{summary['speedup_vs_sequential']:.2f}x vs {summary['n_models']} "
        f"sequential runs"
    )

    payload = json.dumps(doc, indent=2) + "\n"
    if not args.no_snapshot:
        SNAPSHOT_PATH.write_text(payload)
        print(f"wrote {SNAPSHOT_PATH}")

    if args.check:
        if not summary["bit_exact"]:
            print(
                "EQUIVALENCE REGRESSION: grid weights diverge from solo runs",
                file=sys.stderr,
            )
            return 1
        if not summary["gate_pass"]:
            print(
                f"OVERHEAD REGRESSION: grid costs "
                f"{summary['overhead_vs_one_pass']:.2f}x one data pass "
                f"(gate {summary['gate_ratio']}x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
