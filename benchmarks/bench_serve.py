#!/usr/bin/env python
"""Throughput bench for the multi-client training daemon.

Boots a real :class:`repro.serve.ReproServer` in-process, drives it with
concurrent :class:`repro.serve.ReproClient` connections, and measures:

* **statement throughput** — inline SELECTs per second at 1 and 4
  concurrent sessions (protocol + dispatch overhead);
* **job throughput** — TRAIN jobs per second through the bounded queue at
  1 and 2 job workers, with queue-wait percentiles from the live
  ``serve.queue.wait_s`` histogram;
* **admission control** — rejected submissions per second against a
  deliberately saturated one-slot queue (the daemon must answer fast with
  ``retry_after_s`` rather than hang).

Results go to the repo-root ``BENCH_serve.json`` snapshot that travels with
the PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick          # default
    PYTHONPATH=src python benchmarks/bench_serve.py --full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick --check  # CI gate

``--check`` exits non-zero if inline SELECT throughput falls below 50
statements/s or any TRAIN job fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.serve import ReproClient, ReproServer, SaturatedError  # noqa: E402

SNAPSHOT_PATH = REPO_ROOT / "BENCH_serve.json"

TRAIN_SQL = (
    "SELECT * FROM susy TRAIN BY lr "
    "WITH max_epoch_num = 2, block_size = 16KB, buffer_fraction = 0.2"
)
SLOW_TRAIN_SQL = TRAIN_SQL.replace("max_epoch_num = 2", "max_epoch_num = 300")


def _sessions(server, n):
    return [ReproClient(server.host, server.port) for _ in range(n)]


def bench_statements(server, n_sessions: int, statements_per_session: int) -> dict:
    """Inline SELECT round-trips per second across concurrent sessions."""
    clients = _sessions(server, n_sessions)
    try:
        for c in clients:
            c.load("susy", table="t")
        barrier = threading.Barrier(n_sessions + 1)
        walls = [0.0] * n_sessions

        def run(i: int) -> None:
            c = clients[i]
            barrier.wait()
            t0 = time.perf_counter()
            for _ in range(statements_per_session):
                c.sql("SELECT * FROM t LIMIT 5")
            walls[i] = time.perf_counter() - t0

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_sessions)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        total = n_sessions * statements_per_session
        return {
            "sessions": n_sessions,
            "statements": total,
            "wall_s": round(wall, 4),
            "statements_per_s": round(total / wall, 1),
            "mean_latency_ms": round(1000 * sum(walls) / total, 3),
        }
    finally:
        for c in clients:
            c.close()


def bench_jobs(server, n_sessions: int, jobs_per_session: int) -> dict:
    """End-to-end TRAIN jobs per second (submit -> done), queue waits."""
    clients = _sessions(server, n_sessions)
    try:
        for c in clients:
            c.load("susy", table="susy")
        t0 = time.perf_counter()
        ids = [
            [c.submit(TRAIN_SQL, retries=100) for _ in range(jobs_per_session)]
            for c in clients
        ]
        finals = [
            c.wait(job_id, timeout=600)
            for c, session_ids in zip(clients, ids)
            for job_id in session_ids
        ]
        wall = time.perf_counter() - t0
        states = sorted({f["state"] for f in finals})
        waits = obs.get_registry().histogram("serve.queue.wait_s") or {}
        total = n_sessions * jobs_per_session
        return {
            "sessions": n_sessions,
            "job_workers": server.jobs.n_workers,
            "jobs": total,
            "states": states,
            "wall_s": round(wall, 4),
            "jobs_per_s": round(total / wall, 2),
            "queue_wait_p50_s": round(waits.get("p50", 0.0), 4),
            "queue_wait_p95_s": round(waits.get("p95", 0.0), 4),
        }
    finally:
        for c in clients:
            c.close()


def bench_saturation(data_dir: Path, probes: int) -> dict:
    """Rejection latency against a full one-slot queue."""
    server = ReproServer(data_dir, job_workers=1, max_queued=1).start()
    try:
        with ReproClient(server.host, server.port) as c:
            c.load("susy")
            running = c.submit(SLOW_TRAIN_SQL)
            while c.status(running)["state"] == "queued":
                time.sleep(0.01)
            queued = c.submit(SLOW_TRAIN_SQL)
            rejected = 0
            retry_hints = []
            t0 = time.perf_counter()
            for _ in range(probes):
                try:
                    c.submit(SLOW_TRAIN_SQL)
                except SaturatedError as exc:
                    rejected += 1
                    retry_hints.append(exc.retry_after_s)
            wall = time.perf_counter() - t0
            c.cancel(queued)
            c.cancel(running)
            return {
                "probes": probes,
                "rejected": rejected,
                "wall_s": round(wall, 4),
                "rejections_per_s": round(rejected / wall, 1),
                "mean_retry_after_s": round(
                    sum(retry_hints) / max(1, len(retry_hints)), 3
                ),
            }
    finally:
        server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true", default=True,
        help="small workload, seconds to run (default)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="more statements/jobs for more stable numbers",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero below 50 SELECT/s or on any failed TRAIN job",
    )
    parser.add_argument(
        "--no-snapshot", action="store_true",
        help="skip writing the repo-root BENCH_serve.json",
    )
    args = parser.parse_args(argv)

    statements = 200 if args.full else 50
    jobs = 4 if args.full else 2
    probes = 200 if args.full else 50

    obs.reset()
    results: dict = {
        "bench": "serve",
        "mode": "full" if args.full else "quick",
        "seed": args.seed,
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        server = ReproServer(tmp / "a", job_workers=2, max_queued=16).start()
        try:
            results["statements_1_session"] = bench_statements(server, 1, statements)
            results["statements_4_sessions"] = bench_statements(server, 4, statements)
            results["jobs_1_session"] = bench_jobs(server, 1, jobs)
            results["jobs_2_sessions"] = bench_jobs(server, 2, jobs)
        finally:
            server.stop()
        obs.reset()
        results["saturation"] = bench_saturation(tmp / "b", probes)

    for name in (
        "statements_1_session",
        "statements_4_sessions",
        "jobs_1_session",
        "jobs_2_sessions",
        "saturation",
    ):
        print(f"{name}: {json.dumps(results[name])}")

    if not args.no_snapshot:
        SNAPSHOT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {SNAPSHOT_PATH}")

    if args.check:
        failures = []
        if results["statements_4_sessions"]["statements_per_s"] < 50:
            failures.append("inline SELECT throughput below 50/s")
        for key in ("jobs_1_session", "jobs_2_sessions"):
            if results[key]["states"] != ["done"]:
                failures.append(f"{key} has non-done jobs: {results[key]['states']}")
        if results["saturation"]["rejected"] != results["saturation"]["probes"]:
            failures.append("saturated queue accepted a probe")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures))
            return 1
        print("check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
