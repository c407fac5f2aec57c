#!/usr/bin/env python3
"""benchmarks/e2e — one measured, layer-attributed stopwatch.

    python3 benchmarks/e2e/run.py --workload <name|all> --seed <int>
                                  [--seconds S] [--trace [0|1|both]] [--smoke]
                                  [--out result.json]

``--trace 0`` (default) runs a workload untraced and reports the
end-to-end metrics; ``--trace 1`` runs the traced pass and reports the
per-layer metrics; bare ``--trace`` runs one after the other.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The process exits non-zero if any check failed.

See README.md in this directory for what each number means and what it
does not.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# One BLAS thread per process, set before numpy loads: the load shape allows
# two threads or processes in all, and idle OpenBLAS workers spinning beside
# a closed statement loop cost CPU (measured: 1.8x the wall) and repeatability.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
# ``repro`` comes from the checkout this file sits in.
sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def _by_name(samples, kind: str, wall: str = "wall_s") -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for s in samples:
        if s.kind == kind:
            groups.setdefault(s.name, []).append(getattr(s, wall))
    return groups


def _p50_ms(samples, kind: str, wall: str = "wall_s") -> float:
    """Median per statement shape, averaged over the shapes of ``kind``
    (``wall``: the calibrated ``wall_s`` or the measured ``raw_s``)."""
    groups = _by_name(samples, kind, wall)
    if not groups:
        return 0.0
    return 1000.0 * statistics.fmean(statistics.median(v) for v in groups.values())


def _pct_ms(samples, kind: str, q: float) -> float:
    walls = [s.wall_s for s in samples if s.kind == kind]
    return 1000.0 * _percentile(walls, q) if walls else 0.0


def _kind_stats(samples) -> dict:
    """The statement-kind numbers a user sees (shared by both passes)."""
    heavy = [s for s in samples if s.kind in ("train", "job")]
    heavy_wall = sum(s.wall_s for s in heavy)
    return {
        "train_tuples_per_s": sum(s.tuples for s in heavy) / heavy_wall if heavy_wall else 0.0,
        "train_stmt_ms_p50": _p50_ms(heavy, "train") or _p50_ms(heavy, "job"),
        "read_ms_p50": _p50_ms(samples, "read"),
        "read_ms_p95": _pct_ms(samples, "read", 0.95),
        "write_ms_p50": _p50_ms(samples, "write"),
        "write_ms_p95": _pct_ms(samples, "write", 0.95),
        "failed_frac": sum(not s.ok for s in samples) / max(1, len(samples)),
    }


# ----------------------------------------------------------------------
# Host stamp and hygiene
# ----------------------------------------------------------------------


def _stamp() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "git_commit": commit,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load1": round(load1, 2),
        # More runnable tasks than cores before we even start: timings from
        # this run are not comparable.
        "noisy": load1 > nproc,
    }


def _peak_rss_parts_mb() -> dict:
    """Peak RSS of the driver, and of its largest reaped child."""
    return {
        who: resource.getrusage(which).ru_maxrss / 1024.0
        for who, which in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))
    }


def _leaks(threads_before: int) -> list[str]:
    """Everything the run started must be gone when it ends."""
    failures = []
    children = multiprocessing.active_children()
    if children:
        failures.append(f"live child processes: {[c.name for c in children]}")
    deadline = time.monotonic() + 5.0
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.05)
    if threading.active_count() > threads_before:
        failures.append(f"live threads: {[t.name for t in threading.enumerate()]}")
    return failures


#: prctl option: orphaned descendants are re-parented to this process, not
#: to init, so it can wait for every one of them.
_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children are still reaped
        pass


def _children() -> dict[int, str]:
    """Live (not yet reaped) children of this process: ``{pid: state + command}``."""
    me, found = os.getpid(), {}
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        if not entry.isdigit():
            continue
        try:
            # "pid (comm) state ppid ..."; comm may itself hold ")" or " ".
            state, ppid = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()[:2]
            cmdline = Path("/proc", entry, "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if int(ppid) == me:
            found[int(entry)] = f"{state} {cmdline.strip()}"
    return found


def _stop_children() -> list[str]:
    """Stop and wait for every process this one started, on every path out.

    multiprocessing's resource tracker (started with the first spawned
    worker's semaphores) otherwise outlives this process: it only exits once
    it reads EOF on a pipe this process holds open until it dies.  It is
    stopped the way the interpreter would; anything else still running is a
    leak: it is killed, waited for, and returned by name.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()  # close the pipe, waitpid
    except (AttributeError, OSError):
        pass
    stragglers = [f"{pid} {what}" for pid, what in _children().items() if not what.startswith("Z")]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in _children():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while _children() and time.monotonic() < deadline:
            try:
                if os.waitpid(-1, os.WNOHANG) == (0, 0):
                    time.sleep(0.02)
            except ChildProcessError:
                break
    return stragglers


def _failed_lines(samples) -> list[str]:
    return [
        f"{s.kind}.{s.name}: {s.info.get('error', 'check failed')}" for s in samples if not s.ok
    ][:20]


# ----------------------------------------------------------------------
# The untraced pass -> end-to-end metrics
# ----------------------------------------------------------------------

#: Set-up is repeated at least this often, and on until it has cost this
#: many seconds in all (or a cap): a 0.1 s set-up needs more repeats than a
#: 3 s one for its median to hold still.
SETUP_REPEATS_MIN, SETUP_REPEATS_MAX, SETUP_BUDGET_S = 3, 9, 4.0


def run_untraced(cls, seed: int, seconds: float, smoke: bool, work_dir: Path) -> dict:
    from hostclock import HostClock

    threads_before = threading.active_count()
    clock = HostClock()
    # Set-up — data generation, table/index build, daemon boot, and the
    # warm-up round (first spawn, first job, lazy imports) — is done several
    # times over and its median reported: work a later PR moves out of
    # statements has to land in one of those steps.
    raw_setups: list[float] = []
    workload = None
    phase_start = time.perf_counter()
    try:
        for i in range(1 if smoke else SETUP_REPEATS_MAX):
            if i >= SETUP_REPEATS_MIN and sum(raw_setups) >= SETUP_BUDGET_S:
                break
            if workload is not None:
                workload.close()
            workload = cls(smoke=smoke)
            clock.tick(force=True)
            t0 = time.perf_counter()
            workload.build(seed, work_dir / f"build{i}")
            workload.warmup()
            t1 = time.perf_counter()
            clock.tick(force=True)
            raw_setups.append(t1 - t0)
        # One scale for the whole phase: the median of every reading in it.
        setup_s = statistics.median(raw_setups) * clock.section_scale(phase_start, time.perf_counter())

        t0 = time.perf_counter()
        samples = workload.run(t0 + seconds, clock)
        t1 = time.perf_counter()
        clock.calibrate(samples)
        section_s = (t1 - t0) * clock.section_scale(t0, t1)
        failures = workload.finish()
    finally:
        workload.close()
    failures += _leaks(threads_before)

    kinds = _kind_stats(samples)
    rss = _peak_rss_parts_mb()
    metrics = {
        "setup_s": setup_s,
        "stmt_ms_p50": _p50_ms(samples, workload.headline),
        "peak_rss_mb": sum(rss.values()),
    }
    reference = workload.reference
    info = {
        **{k: v for k, v in kinds.items() if k not in metrics},
        "stmts_per_s": len(samples) / section_s,
        "samples": {
            f"{kind}.{name}": len(walls)
            for kind in ("train", "job", "read", "write")
            for name, walls in _by_name(samples, kind).items()
        },
        # Raw (uncalibrated) walls, for reading beside the calibrated ones.
        "raw": {
            "section_s": t1 - t0,
            "setup_s": raw_setups,
            "stmt_ms_p50": _p50_ms(samples, workload.headline, "raw_s"),
            "peak_rss_mb": rss,
            "yardstick_ms": [round(1000.0 * w, 3) for w in clock.walls],
        },
        "digests": dict(workload.digests),
        "sim_train_s": {
            n: r.get("sim_train_s") for n, r in reference.items() if workload.simulated_clock
        },
        "final_train_loss": {n: r.get("final_train_loss") for n, r in reference.items()},
        "final_train_score": {n: r.get("final_train_score") for n, r in reference.items()},
        "failures": failures + _failed_lines(samples),
    }
    failed = sum(not s.ok for s in samples) + len(failures)
    return {
        "attempted": len(samples) + 2,  # + end-of-run audit + leak check
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


# ----------------------------------------------------------------------
# The traced pass -> per-layer metrics
# ----------------------------------------------------------------------


def _pools(workload) -> list:
    """Every buffer pool the workload's statements read through."""
    tables = list(workload.facts()["tables"])
    server = getattr(workload, "server", None)
    for session in getattr(server, "_sessions", {}).values():
        catalog = session.db.catalog
        tables += [catalog.get(name) for name in catalog.names()]
    return [t.pool for t in tables]


def _pool_counts(pools) -> dict:
    return {
        "hits": sum(p.hits for p in pools),
        "misses": sum(p.misses for p in pools),
        "evictions": sum(p.evictions for p in pools),
    }


def _blocks_read() -> float:
    """Blocks read by this process and its reaped workers: the program's own
    always-on counter (worker registries fold into the session's)."""
    from repro import obs

    return obs.get_registry().counter("storage.blockfile.blocks_read")


def run_traced(cls, seed: int, seconds: float, smoke: bool, work_dir: Path) -> dict:
    import probes
    import trace as seams
    from hostclock import HostClock

    from repro import obs

    threads_before = threading.active_count()
    clock = HostClock()
    workload = cls(smoke=smoke)
    try:
        workload.build(seed, work_dir / "build")
        workload.warmup()

        # 1. Untraced reference: the walls the traced ones are compared to.
        t0 = time.perf_counter()
        reference = workload.run(t0 + 0.45 * seconds, clock)
        reference_s = time.perf_counter() - t0

        # 2. Traced section: a fixed number of headline statements, so the
        #    busy seconds and counts below are totals over a known amount of
        #    work and the exact counts repeat.  The program's own repro.obs
        #    spans are switched on for the same statements: they say how
        #    much of a statement the engine can already explain by itself,
        #    and they are the only view into the spawned workers.
        n_traced = 1 if smoke else workload.traced_headline
        pools = _pools(workload)
        obs.reset()
        pools_before, blocks_before = _pool_counts(pools), _blocks_read()
        rec = seams.Recorder()
        undo, missing = seams.install(rec)
        obs.enable()
        try:
            traced = workload.run(float("inf"), clock, max_headline=n_traced)
        finally:
            obs.disable()
            seams.uninstall(undo)
        pools_after, blocks_after = _pool_counts(pools), _blocks_read()
        own_spans = list(obs.get_tracer().spans)
        obs.reset()
        clock.calibrate(reference + traced)

        facts = workload.facts()
        failures = workload.finish()
    finally:
        workload.close()
    failures += _leaks(threads_before)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{workload.name}.jsonl"
    n_spans = seams.write_jsonl(rec, trace_path, workload.name)
    failures += _validate_trace(trace_path)

    summ = rec.summary()
    self_s, incl_s, calls, c = summ["self_s"], summ["incl_s"], summ["calls"], rec.counters
    # The honesty check: self times of every layer sum to the root wall.
    total_self = sum(self_s.values())
    if summ["root_s"] and abs(total_self - summ["root_s"]) > 1e-6 * summ["root_s"]:
        failures.append(f"self times {total_self} != root wall {summ['root_s']}")

    own = probes.obs_coverage(own_spans)
    traced_wall = sum(s.raw_s for s in traced)  # raw, like the spans it is compared to
    ref = _kind_stats(reference)
    heavy_ref = _p50_ms(reference, workload.headline)
    heavy_traced = _p50_ms(traced, workload.headline)
    pool = {k: pools_after[k] - pools_before[k] for k in pools_after}
    unattributed = self_s["db.engine"] + self_s["serve.jobs.run"]
    jobs = [s for s in traced if s.kind == "job"]
    matched = sum(s.info.get("rows", 0) for s in traced)

    m = {
        "storage.codec.decode_s": self_s["storage.codec.decode"],
        "storage.codec.decode_calls": calls["storage.codec.decode"],
        "storage.codec.decoded_bytes": c["storage.codec.decoded_bytes"],
        "storage.codec.explode_s": self_s["storage.codec.explode"],
        "storage.columnar.decode_s": self_s["storage.columnar.decode"],
        "storage.columnar.decode_calls": calls["storage.columnar.decode"],
        "storage.columnar.decoded_bytes": c["storage.columnar.decoded_bytes"],
        "storage.bufferpool.get_s": self_s["storage.bufferpool.get"],
        "storage.bufferpool.hits": pool["hits"],
        "storage.bufferpool.misses": pool["misses"],
        "storage.bufferpool.hit_ratio": pool["hits"] / max(1, pool["hits"] + pool["misses"]),
        "storage.bufferpool.evictions": pool["evictions"],
        "storage.heapfile.dml_s": self_s["storage.heapfile.dml"],
        "storage.heapfile.dml_calls": calls["storage.heapfile.dml"],
        "storage.index.scan_s": self_s["storage.index.scan"],
        "storage.index.nodes_read": c["storage.index.nodes_read"],
        "storage.index.maintain_s": self_s["storage.index.maintain"],
        "storage.index.persist_s": incl_s["storage.index.persist"],
        "storage.index.bytes_written": c["storage.index.bytes_written"],
        "storage.index.build_s": getattr(workload, "index_build_s", 0.0),
        "storage.blockfile.write_s": incl_s["storage.blockfile.write"],
        "storage.blockfile.read_s": self_s["storage.blockfile.read"],
        "storage.blockfile.blocks_read": blocks_after - blocks_before,
        "storage.iomodel.device_page_reads": pool["misses"],
        "storage.iomodel.device_bytes": c["storage.iomodel.device_bytes"],
        "storage.bytes_per_user_byte": probes.bytes_per_user_byte(
            facts["tables"], facts["dataset"], facts.get("table_bytes")
        ),
        "core.dataloader.collate_s": self_s["core.dataloader.collate"],
        "core.dataloader.collate_calls": calls["core.dataloader.collate"],
        "core.dataset.fill_s": self_s["core.dataset.fill"],
        "core.dataset.fills": calls["core.dataset.fill"],
        "db.query.parse_s": self_s["db.query.parse"],
        "db.operators.pull_s": self_s["db.operators.pull"],
        "db.operators.next_calls": c["db.operators.next_calls"],
        "db.operators.block_load_s": self_s["db.operators.block_load"],
        "db.operators.fill_s": self_s["db.operators.fill"],
        "db.where.plan_s": self_s["db.where.plan"],
        "db.where.fetch_s": self_s["db.where.fetch"],
        "db.where.pages_fetched": sum(s.info.get("pages_fetched", 0) for s in traced),
        "db.where.rows_examined_per_row": c["storage.index.entries_scanned"] / matched if matched else 0.0,
        "db.catalog.dml_s": self_s["db.catalog.dml"],
        "db.engine.evaluate_s": self_s["db.engine.evaluate"],
        "db.engine.unattributed_s": unattributed,
        "trace.coverage_frac": 1.0 - unattributed / summ["root_s"] if summ["root_s"] else 0.0,
        "ml.kernels.step_s": self_s["ml.kernels.step"],
        "ml.kernels.step_calls": calls["ml.kernels.step"],
        "ml.kernels.tuples": c["ml.kernels.tuples"],
        "ml.persistence.checkpoint_s": incl_s["ml.persistence.checkpoint"],
        "ml.persistence.checkpoint_bytes": c["ml.persistence.checkpoint_bytes"],
        "ml.persistence.durable_write_s": self_s["ml.persistence.durable_write"],
        "parallel.run_s": incl_s["parallel.run"],
        "parallel.hopper.run_s": incl_s["parallel.hopper.run"],
        "serve.protocol.encode_s": self_s["serve.protocol.encode"],
        "serve.protocol.decode_s": self_s["serve.protocol.decode"],
        "serve.protocol.frames": calls["serve.protocol.encode"] + calls["serve.protocol.decode"],
        "serve.protocol.bytes": c["serve.protocol.bytes"],
        "serve.session.dispatch_s": self_s["serve.session.dispatch"],
        "serve.jobs.queue_wait_ms_p50": 1000.0 * statistics.median(
            [s.info.get("queue_wait_s") or 0.0 for s in jobs] or [0.0]
        ),
        "serve.jobs.run_s": sum(s.info.get("run_s") or 0.0 for s in jobs),
        "serve.jobs.journal_write_s": incl_s["serve.jobs.journal_write"],
        "serve.jobs.journal_writes": calls["serve.jobs.journal_write"],
        "serve.read_ms_p99": _pct_ms(reference, "read", 0.99) if jobs else 0.0,
        "serve.write_ms_p99": _pct_ms(reference, "write", 0.99) if jobs else 0.0,
        # How far behind its schedule the paced client sent (open loop).
        "serve.inline_late_ms_p95": 1000.0 * _percentile(
            [s.info["late_s"] for s in reference if "late_s" in s.info] or [0.0], 0.95
        ),
        "obs.leaf_coverage_frac": own["leaf_s"] / traced_wall if traced_wall else 0.0,
        "obs.call_paths": own["call_paths"],
        "trace.overhead_frac": heavy_traced / heavy_ref - 1.0 if heavy_ref else 0.0,
        "trace.seams_missing": len(missing),
        "trace.spans": n_spans,
        "trace.statements": len(traced),
        "stmts_per_s": len(reference) / (reference_s * clock.section_scale(t0, t0 + reference_s)),
        **ref,
    }
    # statement wall = overhead (spawn + materialise + teardown)
    #                + work (block reads + kernel) + barrier wait,
    # the last two as the mean over the engine's workers.
    for root_name, stmt, prefix in (
        ("worker", "workers2", "parallel"),
        ("hopper.worker", "grid2", "parallel.hopper"),
    ):
        split = probes.worker_split(own_spans, root_name)
        walls = [s.raw_s for s in traced if s.name == stmt]
        if split is None or not walls:
            continue
        m[f"{prefix}.epoch_work_s"] = split["work_s"]
        m[f"{prefix}.barrier_wait_s"] = split["barrier_wait_s"]
        m[f"{prefix}.overhead_s"] = statistics.fmean(walls) - split["lifetime_s"]

    # Reference numbers that need one value per run: the reference TRAIN's.
    first = workload.reference.get(workload.reference_name, {})
    m["sim_train_s"] = (first.get("sim_train_s") or 0.0) if workload.simulated_clock else 0.0
    m["final_train_loss"] = first.get("final_train_loss") or 0.0

    ceiling = None
    if facts["model"] is not None:
        ceiling = probes.kernel_ceiling(facts["dataset"], facts["model"], seed)
        m["ml.kernels.standalone_tuples_per_s"] = ceiling["tuples_per_s"]
        m["ml.kernels.standalone_tuples_per_s_best"] = ceiling["tuples_per_s_best"]
        if ref["train_tuples_per_s"]:
            m["ml.kernels.e2e_over_kernel_ratio"] = ceiling["tuples_per_s"] / ref["train_tuples_per_s"]
    if workload.name == "train_dense_row" and not smoke:
        cli = probes.cli_costs(ROOT / "src", work_dir)
        m["cli.startup_s"], m["cli.train_s"] = cli["startup_s"], cli["train_s"]

    every = reference + traced
    failed = sum(not s.ok for s in every) + len(failures)
    return {
        "attempted": len(every) + 3,  # + audit + leak check + trace validation
        "failed": failed,
        "metrics": m,
        "info": {
            "trace_file": str(trace_path.relative_to(ROOT)),
            "seams_missing": missing,
            "kernel_probe": ceiling,
            "digests": dict(workload.digests),
            "self_s": {k: round(v, 6) for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])},
            "root_s": summ["root_s"],
            "failures": failures + _failed_lines(every),
        },
    }


def _validate_trace(path: Path) -> list[str]:
    """The trace must satisfy the repo's own JSONL schema."""
    from repro import obs

    try:
        schema = obs.load_schema()
        meta, events = obs.read_trace_jsonl(path)
        errors = obs.validate_events(meta, events, schema)
    except Exception as exc:  # noqa: BLE001 - an unreadable trace is a failed check
        return [f"trace validation: {type(exc).__name__}: {exc}"]
    return [f"trace schema: {e}" for e in list(errors or [])[:5]]


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def _emit(result: dict, names: list[dict]) -> dict:
    """The contract's result object: every listed metric, with its unit."""
    computed = result["metrics"]
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            entry["name"]: {"value": float(computed.get(entry["name"], 0.0)), "unit": entry["unit"]}
            for entry in names
        },
    }


def _print_table(workload: str, emitted: dict, info: dict) -> None:
    print(f"== {workload}: attempted {emitted['attempted']}, failed {emitted['failed']}")
    for name, entry in emitted["metrics"].items():
        print(f"  {name:<42s} {entry['value']:>16.6f} {entry['unit']}")
    for key in ("samples", "digests", "sim_train_s", "final_train_loss", "failures", "seams_missing"):
        if info.get(key):
            print(f"  [{key}] {json.dumps(info[key], default=str)}")


def _run_all(args, names: list[str]) -> list[dict]:
    """One fresh process per workload, as the driver runs them: set-up time
    and peak RSS mean nothing in a process that already ran another."""
    results = []
    for name in names:
        part = _ensure(OUT_DIR) / f"part_{os.getpid()}_{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out", str(part)]
        subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT)
        if part.exists():  # a workload that crashed leaves none: reported below
            results += json.loads(part.read_text())
            part.unlink()
        else:
            results.append({"workload": name, "trace": -1, "correct": False,
                            "attempted": 1, "failed": 1, "metrics": {}, "info": {}})
    return results


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
                        help="0: untraced pass, 1: traced pass, bare or 'both': one after the other")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, both passes, wiring check only")
    parser.add_argument("--out", type=Path, help="also write the full result JSON here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.trace, args.seconds = "both", 0.3

    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}, all")
    _adopt_orphans()
    try:
        if args.workload == "all":
            results = _run_all(args, list(WORKLOADS))
        else:
            results = _run_one(args, WORKLOADS[args.workload], spec)
    finally:
        # Nothing this process started may outlive it (nor be found as a
        # zombie behind it): stop, wait, and count what had to be killed.
        stragglers = _stop_children()
    if stragglers:
        print(f"LEAKED processes, killed: {stragglers}", file=sys.stderr)
        results[-1]["failed"] += len(stragglers)
        results[-1]["correct"] = False
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, default=str) + "\n")
    # The closing line: the one pass that ran, or the whole set folded up
    # (metric names are unique across both passes; workloads get a prefix).
    many = args.workload == "all"
    closing = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if many else k): v
            for r in results
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(closing))
    return 0 if closing["correct"] else 1


def _run_one(args, cls, spec: dict) -> list[dict]:
    # Everything the program or its workers write lands inside the checkout.
    work_dir = Path(tempfile.mkdtemp(prefix="work_", dir=_ensure(OUT_DIR)))
    tempfile.tempdir = os.environ["TMPDIR"] = str(work_dir)
    stamp = _stamp()
    if stamp["noisy"]:
        print(f"WARNING: load average {stamp['load1']} > nproc {stamp['nproc']}: noisy run", file=sys.stderr)
    results = []
    try:
        for trace in (0, 1) if args.trace == "both" else (int(args.trace),):
            runner = run_traced if trace else run_untraced
            result = runner(cls, args.seed, args.seconds, args.smoke, work_dir)
            emitted = _emit(result, spec["per_layer"] if trace else spec["end_to_end"])
            _print_table(f"{cls.name} (trace={trace})", emitted, result["info"])
            results.append(
                {"workload": cls.name, "seed": args.seed, "trace": trace, "seconds": args.seconds,
                 "smoke": args.smoke, **stamp, **emitted, "info": result["info"]}
            )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
    return results


def _ensure(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
