#!/usr/bin/env python3
"""Does the benchmark agree with itself?

    python3 benchmarks/e2e/selfcheck.py [--seed 0] [--seconds S]

Runs two full sets (six workloads, untraced + traced pass each) of the same
code at the same seed and fails unless

* every end-to-end metric of the two sets agrees within its own bound
  (``BENCHMARK.json``), workload by workload, and
* everything that is a pure function of the seed is *equal*: TRAIN weight
  digests, the simulated device clock, the final train loss, and the exact
  counts of the traced pass (pages read from the simulated device, decode /
  collate / kernel calls, tuples stepped, pool hits and misses).

A benchmark whose own two runs disagree by more than its bound cannot
accept or reject a later PR on that metric; the fix is a longer run or a
wider bound, written down in README.md — never a dropped metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Traced-pass counts that depend only on the seed and the fixed number of
#: traced statements.  serve_mixed is exempt: how many inline statements fit
#: beside a job is timing.
EXACT_COUNTS = (
    "storage.codec.decode_calls",
    "storage.codec.decoded_bytes",
    "storage.columnar.decode_calls",
    "storage.bufferpool.hits",
    "storage.bufferpool.misses",
    "storage.bufferpool.evictions",
    "storage.heapfile.dml_calls",
    "storage.blockfile.blocks_read",
    "storage.iomodel.device_page_reads",
    "storage.iomodel.device_bytes",
    "core.dataloader.collate_calls",
    "db.operators.next_calls",
    "db.where.pages_fetched",
    "ml.kernels.step_calls",
    "ml.kernels.tuples",
    "sim_train_s",
    "final_train_loss",
)
EXACT_INFO = ("digests", "sim_train_s", "final_train_loss")
TIMING_DEPENDENT = ("serve_mixed",)


def run_set(seed: int, seconds: float | None, out: Path) -> list[dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--trace", "both",
           "--seed", str(seed), "--out", str(out)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"run.py failed its own checks (exit {done.returncode}); see {out}")
    return json.loads(out.read_text())


def compare(first: list[dict], second: list[dict], spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    problems = []
    for a, b in zip(first, second):
        where = f"{a['workload']} (trace={a['trace']})"
        if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
            problems.append(f"{where}: the two sets ran different passes")
            continue
        if a["trace"] == 0:
            for name, entry in bounds.items():
                x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                worse, better = (max, min) if entry["better"] == "lower" else (min, max)
                gap = abs(worse(x, y) - better(x, y)) / better(x, y) if better(x, y) else 0.0
                verdict = "ok" if gap <= entry["bound"] else "DISAGREE"
                print(f"  {where:36s} {name:14s} {x:12.4f} {y:12.4f}  gap {gap:6.3f}  bound {entry['bound']:.2f}  {verdict}")
                if gap > entry["bound"]:
                    problems.append(f"{where}: {name} {x:.4f} vs {y:.4f} differ by {gap:.3f} > {entry['bound']}")
            for key in EXACT_INFO:
                if a["info"].get(key) != b["info"].get(key):
                    problems.append(f"{where}: {key} {a['info'].get(key)} != {b['info'].get(key)}")
        elif a["workload"] not in TIMING_DEPENDENT:
            for name in EXACT_COUNTS:
                x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if x != y:
                    problems.append(f"{where}: {name} {x!r} != {y!r} (must repeat exactly)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="override run_seconds (shorter = noisier)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    sets = [run_set(args.seed, args.seconds, out / f"selfcheck_{i}.json") for i in (1, 2)]
    problems = compare(sets[0], sets[1], spec)
    for line in problems:
        print("FAIL", line)
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
