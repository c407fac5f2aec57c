#!/usr/bin/env python
"""Grid bench for the cost-based shuffle advisor (``strategy = auto``).

Runs every (data ordering × storage device) grid point twice over: once
per fixed strategy and once with the advisor choosing, then scores each
run by **test accuracy at a simulated-time budget** — the budget being
the fastest fixed strategy's total simulated time at that grid point, so
every strategy is compared at the moment the quickest one finishes.

Claim under test: the advisor's pick is never meaningfully worse than the
best fixed strategy chosen with hindsight.  ``--check`` enforces
``score(auto) >= (1 - tolerance) * max(score(fixed))`` at every grid
point (default tolerance 5%), plus that the advisor actually *moves*: it
must not resolve to the same strategy on every grid point.

Grid: shuffled / clustered / interleaved orderings of the bundled SUSY
sample × the three latency-scaled device curves (``hdd-scaled``,
``ssd-scaled``, ``nvm-scaled`` — scaled so simulated seconds stay short
while preserving each device's random/sequential ratio).

Every number is on the **simulated** device clock (``"clock": "simulated"``
in the snapshot): this is a paper / device-model claim, not a stopwatch —
wall-clock performance is ``benchmarks/e2e`` only.  Results go to the
repo-root ``BENCH_advisor.json`` snapshot that travels with the PR; it holds
nothing host-dependent (the run's wall time is printed, not written), so a
re-run leaves the tree clean.

Usage::

    PYTHONPATH=src python benchmarks/bench_advisor.py --quick          # default
    PYTHONPATH=src python benchmarks/bench_advisor.py --full
    PYTHONPATH=src python benchmarks/bench_advisor.py --quick --check  # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.data import (  # noqa: E402
    DATASETS,
    clustered_by_label,
    interleaved_by_label,
)
from repro.db import MiniDB  # noqa: E402
from repro.storage import device_by_name  # noqa: E402

SNAPSHOT_PATH = REPO_ROOT / "BENCH_advisor.json"

DEVICES = ("hdd-scaled", "ssd-scaled", "nvm-scaled")
FIXED_STRATEGIES = ("no_shuffle", "corgipile", "corgi2", "shuffle_once")
FULL_EXTRA_STRATEGIES = ("block_reshuffle", "block_reversal")

SQL = (
    "SELECT * FROM t TRAIN BY lr WITH strategy = {strategy}, "
    "learning_rate = 0.05, max_epoch_num = {epochs}, block_size = 8KB, "
    "seed = 0, device = '{device}'"
)


def _layouts(train, full: bool) -> dict:
    layouts = {
        "shuffled": train.shuffled(seed=3),
        "clustered": clustered_by_label(train, seed=0),
        "interleaved": interleaved_by_label(train, run_length=64, seed=0),
    }
    if full:
        layouts["interleaved_fine"] = interleaved_by_label(
            train, run_length=16, seed=0
        )
    return layouts


def _score_at(result, budget_s: float) -> float:
    """Test accuracy of the last epoch completing within the budget.

    A strategy whose setup alone blows the budget has produced nothing by
    then: it scores chance (0.5 on the binary task).
    """
    points = [p for p in result.timeline.points if p.time_s <= budget_s + 1e-12]
    return float(points[-1].test_score) if points else 0.5


def run_grid(epochs: int, full: bool) -> dict:
    train, test = DATASETS["susy"].build_split(seed=0)
    strategies = FIXED_STRATEGIES + (FULL_EXTRA_STRATEGIES if full else ())
    layouts = _layouts(train, full)
    points = []
    for device in DEVICES:
        for layout_name, data in layouts.items():
            db = MiniDB(device=device_by_name(device), page_bytes=1024)
            db.create_table("t", data)
            runs = {}
            for strategy in strategies + ("auto",):
                sql = SQL.format(strategy=strategy, epochs=epochs, device=device)
                runs[strategy] = db.execute(sql, test=test)
            budget = min(runs[s].timeline.total_time_s for s in strategies)
            scores = {s: round(_score_at(r, budget), 4) for s, r in runs.items()}
            best_fixed = max(scores[s] for s in strategies)
            auto = runs["auto"]
            points.append(
                {
                    "device": device,
                    "ordering": layout_name,
                    "budget_s": round(budget, 6),
                    "resolved": auto.query.strategy,
                    "measured_hd": round(
                        auto.query.extra["advisor"]["hd"]["hd"], 3
                    ),
                    "auto_score": scores["auto"],
                    "best_fixed_score": best_fixed,
                    "ratio": round(scores["auto"] / best_fixed, 4),
                    "fixed_scores": {s: scores[s] for s in strategies},
                }
            )
            print(
                f"{device:11s} {layout_name:16s} h_D={points[-1]['measured_hd']:<7} "
                f"-> {points[-1]['resolved']:15s} auto={scores['auto']:.4f} "
                f"best={best_fixed:.4f} ratio={points[-1]['ratio']:.3f}"
            )
    return {
        "bench": "advisor",
        "clock": "simulated",
        "mode": "full" if full else "quick",
        "epochs": epochs,
        "dataset": "susy",
        "n_train": train.n_tuples,
        "strategies": list(strategies),
        "points": points,
    }


def check(results: dict, tolerance: float) -> list[str]:
    failures = []
    for p in results["points"]:
        floor = (1.0 - tolerance) * p["best_fixed_score"]
        if p["auto_score"] < floor:
            failures.append(
                f"{p['device']}/{p['ordering']}: auto={p['auto_score']} "
                f"< (1-{tolerance:.0%}) * best={p['best_fixed_score']}"
            )
    resolved = {p["resolved"] for p in results["points"]}
    if len(resolved) < 2:
        failures.append(
            f"advisor resolved every grid point to {resolved}: the decision "
            "is not responding to ordering/device at all"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", default=True,
        help="3x3 grid, 8 epochs (default)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="adds in-block strategies and a fine-interleaved ordering, 12 epochs",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if the advisor trails the best fixed strategy "
        "by more than --tolerance at any grid point",
    )
    parser.add_argument("--tolerance", type=float, default=0.05)
    parser.add_argument(
        "--no-snapshot", action="store_true",
        help="skip writing the repo-root BENCH_advisor.json",
    )
    args = parser.parse_args(argv)

    epochs = 12 if args.full else 8
    t0 = time.perf_counter()
    results = run_grid(epochs=epochs, full=args.full)
    wall_s = time.perf_counter() - t0

    if not args.no_snapshot:
        SNAPSHOT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\n{len(results['points'])} grid points in {wall_s:.2f}s -> {SNAPSHOT_PATH}")

    if args.check:
        failures = check(results, args.tolerance)
        if failures:
            print("\nADVISOR GATE FAILED:")
            for f in failures:
                print(f"  {f}")
            return 1
        worst = min(p["ratio"] for p in results["points"])
        print(f"advisor gate OK: worst auto/best ratio {worst:.3f} "
              f"(floor {1 - args.tolerance:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
