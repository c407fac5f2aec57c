"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``      list the bundled datasets (scaled Table 2) and strategies
``generate``  write a synthetic dataset to a LIBSVM or CSV file
``train``     train a model over a data file (or bundled dataset) with a
              chosen shuffling strategy; ``--workers N`` runs sharded
              CorgiPile in real worker processes with ``--aggregation
              sync|epoch`` (Section 5); optionally save the model
``predict``   score a saved model against a data file
``explain``   print the physical plan a TRAIN query would execute
``advise``    run the cost-based shuffle advisor over a dataset and print
              its per-device decision table (h_D probe + strategy costs)
``bench-io``  print the Figure 20 random-vs-sequential throughput curve
``loader-stats``  drive the concurrent loaders and print their
              observability counters (queue depth, stall/wait, overlap)
``chaos``     run the ``train`` statement through ``MiniDB.train`` on a
              fault-injected heap (transient errors, torn pages, latency,
              optional page-read crash + resume from its checkpoint) and
              verify the weights are bit-identical to the fault-free run
``obs-report``  render (and optionally validate) an exported trace file as
              the human span-tree/metrics summary
``serve``     run the long-lived multi-client training daemon (sessions,
              async TRAIN job queue, crash-safe resume) over a data dir
``client``    connect to a running daemon: load tables, run statements,
              poll/cancel jobs, print live daemon stats

Telemetry: every workload command takes ``--trace-out PATH`` /
``--metrics-out PATH`` (shared argument group) and then emits through the
one :mod:`repro.obs` session — a JSONL span trace and/or a flat JSON
metrics snapshot, both re-renderable with ``repro obs-report``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import obs
from .bench import format_table
from .data import (
    DATASETS,
    Dataset,
    clustered_by_label,
    load,
    ordered_by_feature,
    read_csv,
    read_libsvm,
    write_csv,
    write_libsvm,
)
from .db import MiniDB, TrainSpec
from .db.plan import STRATEGIES
from .db.query import MODEL_NAMES
from .db.spec import AGGREGATION_MODES
from .ml import load_model, save_model
from .shuffle import STRATEGY_NAMES
from .storage import DEVICE_MODELS, device_by_name, random_vs_sequential_curve

__all__ = ["main", "build_parser"]


def _add_common_options(
    parser: argparse.ArgumentParser,
    *,
    workers: int | None = None,
    quick: bool = True,
    telemetry: bool = True,
) -> None:
    """The shared ``--seed/--workers/--quick/--trace-out/--metrics-out`` group.

    Every subcommand that takes any of these gets them from here, so the
    flags spell and default the same way everywhere (``--seed 0``; ``--quick``
    shrinks the workload for a smoke run; ``--workers`` appears only where a
    worker count is meaningful, with the subcommand's natural default).
    ``telemetry`` adds the unified ``--trace-out``/``--metrics-out`` export
    flags on every workload command.
    """
    group = parser.add_argument_group("common options")
    group.add_argument(
        "--seed", type=int, default=0,
        help="deterministic seed for shuffles, data generation, and faults",
    )
    if workers is not None:
        group.add_argument(
            "--workers", type=int, default=workers,
            help=f"number of parallel workers (default {workers})",
        )
    if quick:
        group.add_argument(
            "--quick", action="store_true",
            help="shrink the workload for a fast smoke run",
        )
    if telemetry:
        group.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="enable span tracing and write the JSONL trace here",
        )
        group.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write the flat JSON metrics snapshot here",
        )


@contextlib.contextmanager
def _telemetry(args):
    """Scope one command's run under the requested obs exports.

    No flags → no-op (tracing stays off).  With ``--trace-out`` and/or
    ``--metrics-out`` the session tracer records for the duration and the
    files are written on the way out — one code path for every command.
    """
    trace_path = getattr(args, "trace_out", None)
    metrics_path = getattr(args, "metrics_out", None)
    if trace_path is None and metrics_path is None:
        yield
        return
    obs.reset()  # each CLI run exports its own telemetry, not stale state
    with obs.trace_to(trace_path, metrics_path=metrics_path):
        yield
    for path in (trace_path, metrics_path):
        if path is not None:
            print(f"wrote {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CorgiPile reproduction — SGD without full data shuffle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list bundled datasets and strategies")

    gen = sub.add_parser("generate", help="write a synthetic dataset to disk")
    gen.add_argument("dataset", choices=sorted(DATASETS))
    gen.add_argument("--out", required=True, help="output file path")
    gen.add_argument("--format", choices=("libsvm", "csv"), default="libsvm")
    gen.add_argument(
        "--order",
        default="shuffled",
        help="physical order: shuffled | clustered | feature:<index>",
    )
    _add_common_options(gen, quick=False, telemetry=False)

    train = sub.add_parser("train", help="train a model with a shuffle strategy")
    source = train.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="LIBSVM/CSV input file")
    source.add_argument("--dataset", choices=sorted(DATASETS), help="bundled dataset")
    train.add_argument("--format", choices=("libsvm", "csv"), default="libsvm")
    train.add_argument("--task", choices=("binary", "multiclass", "regression"), default="binary")
    train.add_argument("--model", choices=MODEL_NAMES, default="lr")
    train.add_argument("--strategy", choices=STRATEGIES + ("auto",), default="corgipile")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--lr", type=float, default=0.05)
    train.add_argument("--decay", type=float, default=0.95)
    train.add_argument("--batch-size", type=int, default=1)
    train.add_argument("--buffer-fraction", type=float, default=0.1)
    train.add_argument("--block-tuples", type=int, default=40)
    train.add_argument("--test-fraction", type=float, default=0.1)
    train.add_argument(
        "--where", metavar="PRED", default=None,
        help="train over the qualifying subset only (e.g. 'f0 >= 0.5 AND "
        "label = 1'): the engine's TRAIN ... WHERE path, bit-exact against "
        "a materialised copy of the subset",
    )
    train.add_argument(
        "--index", metavar="COLUMN", default=None,
        help="with --where: build a B+tree index on COLUMN first, so the "
        "planner can pick the index-ordered fetch over the full scan",
    )
    train.add_argument(
        "--grid", metavar="AXES", default=None,
        help="model-hopper grid search, e.g. 'lr = 0.1 | 0.01, l2 = 0 | 1e-4': "
        "trains every axis combination in one data pass (S models hopping "
        "over P shard workers) and prints the leaderboard; each config's "
        "weights are bit-identical to training it alone",
    )
    train.add_argument(
        "--aggregation", choices=AGGREGATION_MODES, default="sync",
        help="with --workers > 1: per-batch gradient averaging | epoch-end "
        "model averaging (default sync)",
    )
    train.add_argument("--save-model", help="write the trained model to this .npz path")
    _add_common_options(train, workers=1)

    predict = sub.add_parser("predict", help="score a saved model on a data file")
    predict.add_argument("--model", required=True, help="saved .npz model")
    predict.add_argument("--data", required=True)
    predict.add_argument("--format", choices=("libsvm", "csv"), default="libsvm")
    predict.add_argument("--task", choices=("binary", "multiclass", "regression"), default="binary")

    explain = sub.add_parser("explain", help="print the TRAIN physical plan")
    explain.add_argument("--dataset", choices=sorted(DATASETS), default="higgs")
    explain.add_argument("--model", choices=MODEL_NAMES, default="svm")
    explain.add_argument(
        "--strategy", default="corgipile",
        help="access path, or 'auto' to show the cost advisor's decision",
    )
    explain.add_argument("--block-size", type=int, default=8 * 1024)
    explain.add_argument("--buffer-fraction", type=float, default=0.1)
    explain.add_argument(
        "--device", choices=sorted(DEVICE_MODELS), default="ssd",
        help="device model charged by the advisor for strategy=auto",
    )
    explain.add_argument(
        "--order", default="shuffled",
        help="physical order of the table: shuffled | clustered | feature:<index>",
    )
    explain.add_argument(
        "--where", metavar="PRED", default=None,
        help="show the filtered plan: predicate resolution, index-vs-scan "
        "fetch decision, and the RidBlockShuffle tree",
    )
    explain.add_argument(
        "--index", metavar="COLUMN", default=None,
        help="with --where: build a B+tree index on COLUMN before planning",
    )
    explain.add_argument(
        "--grid", metavar="AXES", default=None,
        help="show the model-hopper plan for a grid TRAIN, e.g. "
        "'lr = 0.1 | 0.01, l2 = 0 | 1e-4'",
    )

    advise = sub.add_parser(
        "advise",
        help="run the cost-based shuffle advisor over a dataset and print its decision",
    )
    advise.add_argument("--dataset", choices=sorted(DATASETS), default="higgs")
    advise.add_argument(
        "--order", default="clustered",
        help="physical order: shuffled | clustered | feature:<index>",
    )
    advise.add_argument(
        "--device", choices=sorted(DEVICE_MODELS), default=None,
        help="one device model (default: compare hdd, ssd and nvm)",
    )
    advise.add_argument("--block-size", type=int, default=8 * 1024)
    advise.add_argument("--buffer-fraction", type=float, default=0.1)
    advise.add_argument("--epochs", type=int, default=20)
    _add_common_options(advise, quick=False, telemetry=False)

    io_bench = sub.add_parser("bench-io", help="Figure 20 throughput curve")
    io_bench.add_argument("--device", choices=("hdd", "ssd", "nvm"), default="hdd")

    loader = sub.add_parser(
        "loader-stats",
        help="run the concurrent loaders and print their observability counters",
    )
    loader.add_argument("--dataset", choices=sorted(DATASETS), default="susy")
    loader.add_argument("--buffer-blocks", type=int, default=2)
    loader.add_argument("--batch-size", type=int, default=32)
    loader.add_argument("--epochs", type=int, default=2)
    loader.add_argument("--block-tuples", type=int, default=40)
    loader.add_argument("--buffer-tuples", type=int, default=200)
    loader.add_argument("--prefetch-depth", type=int, default=2)
    _add_common_options(loader, workers=2)

    chaos = sub.add_parser(
        "chaos",
        help="train under injected storage faults and verify fault-tolerance",
    )
    chaos.add_argument("--dataset", choices=sorted(DATASETS), default="susy")
    chaos.add_argument("--epochs", type=int, default=2)
    chaos.add_argument("--p-transient", type=float, default=0.2)
    chaos.add_argument("--p-torn", type=float, default=0.1)
    chaos.add_argument("--p-latency", type=float, default=0.0)
    chaos.add_argument("--latency-ms", type=float, default=1.0)
    chaos.add_argument("--max-failures", type=int, default=2)
    chaos.add_argument(
        "--crash-page",
        type=int,
        default=None,
        help="also kill a run by crashing its read of heap page N, then run "
        "the statement again over its checkpoint, which resumes it",
    )
    chaos.add_argument("--block-tuples", type=int, default=40)
    chaos.add_argument("--batch-size", type=int, default=1)
    _add_common_options(chaos)

    obsr = sub.add_parser(
        "obs-report",
        help="render (and optionally validate) an exported obs trace",
    )
    obsr.add_argument("trace", help="JSONL trace written by --trace-out")
    obsr.add_argument(
        "--metrics",
        help="also render a metrics snapshot written by --metrics-out",
    )
    obsr.add_argument(
        "--validate", action="store_true",
        help="check the trace against the checked-in JSON schema; "
        "non-zero exit on violations",
    )
    obsr.add_argument(
        "--schema", default=None,
        help="alternate schema path (default docs/obs_trace.schema.json)",
    )
    obsr.add_argument("--max-depth", type=int, default=6)

    serve = sub.add_parser(
        "serve",
        help="run the multi-client training daemon over a durable data dir",
    )
    serve.add_argument(
        "--data-dir", required=True,
        help="daemon state directory (job journal, checkpoints, server.json)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; the bound port is printed "
        "and advertised in server.json)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=8,
        help="admission-control bound on queued TRAIN jobs (default 8)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=2,
        help="training worker threads (default 2)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=256, metavar="TUPLES",
        help="checkpoint cadence for TRAIN jobs (default 256 tuples)",
    )
    serve.add_argument(
        "--device", choices=sorted(DEVICE_MODELS), default="ssd",
        help="device model the plan-time advisor charges for strategy=auto "
        "TRAIN statements (default ssd)",
    )
    _add_common_options(serve, quick=False)

    client = sub.add_parser(
        "client",
        help="connect to a running daemon and run statements / inspect jobs",
    )
    client.add_argument(
        "--data-dir", default=None,
        help="find the daemon via its server.json advertisement",
    )
    client.add_argument("--host", default=None, help="explicit daemon host")
    client.add_argument("--port", type=int, default=None, help="explicit daemon port")
    client.add_argument(
        "--load", metavar="DATASET", default=None,
        help="materialise a bundled dataset as a session table first",
    )
    client.add_argument(
        "--order", default="shuffled", choices=("shuffled", "clustered"),
        help="row order for --load (default shuffled)",
    )
    client.add_argument(
        "--table", default=None,
        help="table name for --load (default: the dataset name)",
    )
    client.add_argument(
        "-e", "--execute", action="append", default=[], metavar="SQL",
        help="run one statement (repeatable, in order); TRAIN BY prints the "
        "job id and, with --wait, blocks for the result",
    )
    client.add_argument(
        "--wait", action="store_true",
        help="block on each submitted TRAIN job and print its final state",
    )
    client.add_argument("--status", metavar="JOB", default=None)
    client.add_argument("--cancel", metavar="JOB", default=None)
    client.add_argument(
        "--jobs", action="store_true", help="list this daemon's jobs"
    )
    client.add_argument(
        "--stats", action="store_true", help="print the live daemon stats"
    )
    client.add_argument(
        "--shutdown", action="store_true", help="ask the daemon to stop"
    )
    _add_common_options(client, quick=False, telemetry=False)

    return parser


def _load_input(args) -> Dataset:
    if getattr(args, "dataset", None):
        return load(args.dataset, seed=getattr(args, "seed", 0))
    if args.format == "csv":
        return read_csv(args.data, task=args.task)
    return read_libsvm(args.data, task=args.task)


def _apply_order(dataset: Dataset, order: str, seed: int) -> Dataset:
    if order == "shuffled":
        return dataset.shuffled(seed=seed)
    if order == "clustered":
        return clustered_by_label(dataset, seed=seed)
    if order.startswith("feature:"):
        return ordered_by_feature(dataset, int(order.split(":", 1)[1]), seed=seed)
    raise SystemExit(f"unknown --order {order!r}")


def _cmd_info(_args) -> int:
    rows = [
        {
            "name": name,
            "kind": spec.kind,
            "tuples": spec.n_tuples,
            "features": spec.n_features,
            "paper size": spec.paper_size,
        }
        for name, spec in DATASETS.items()
    ]
    print(format_table(rows, title="bundled datasets (scaled Table 2)"))
    print("\nshuffle strategies:", ", ".join(STRATEGY_NAMES))
    return 0


def _cmd_generate(args) -> int:
    dataset = _apply_order(load(args.dataset, seed=args.seed), args.order, args.seed)
    if args.format == "csv":
        write_csv(dataset, args.out)
    else:
        write_libsvm(dataset, args.out)
    print(f"wrote {dataset.n_tuples} tuples x {dataset.n_features} features to {args.out}")
    return 0


def _where_and_grid(args) -> dict:
    """The ``--where`` / ``--grid`` flags ``train`` and ``explain`` share, as
    ``TrainSpec`` fields."""
    from .db.query import _parse_grid, parse_predicate

    return {
        "where": parse_predicate(args.where) if args.where else None,
        "grid": _parse_grid(args.grid) if args.grid else None,
    }


def _create_index(args, db: MiniDB, table: str) -> None:
    """``--index``: built before planning, so the planner can pick it."""
    from .db.query import CreateIndexQuery

    if args.index:
        db.create_index(
            CreateIndexQuery(name=f"ix_{args.index}", table=table, column=args.index)
        )


def _train_spec(args, table: str, tuple_bytes: float) -> TrainSpec:
    """The TRAIN statement the ``train`` flags spell, on ``table``."""
    return TrainSpec(
        table=table,
        model=args.model,
        strategy=args.strategy,
        lr=args.lr,
        decay=args.decay,
        epochs=min(args.epochs, 3) if args.quick else args.epochs,
        batch_size=args.batch_size,
        buffer_fraction=args.buffer_fraction,
        block_size=max(4096, int(args.block_tuples * tuple_bytes)),
        seed=args.seed,
        workers=args.workers,
        aggregation=args.aggregation,
        **_where_and_grid(args),
    )


def _cmd_train(args) -> int:
    """``train``: the flags become one TRAIN statement; the engine runs it.

    Plain, ``--where``, ``--grid`` and ``--workers`` runs are the same call —
    the planner picks the executor exactly as it does for SQL — so what this
    prints is what ``MiniDB.execute`` of the equivalent statement returns.
    """
    from .db.errors import EngineError

    dataset = _load_input(args)
    train_set, test_set = dataset.split(1.0 - args.test_fraction, seed=args.seed)
    with MiniDB(page_bytes=4096) as db:
        info = db.create_table("t", train_set)
        _create_index(args, db, "t")
        try:
            result = db.train(_train_spec(args, "t", info.tuple_bytes), test=test_set)
        except EngineError as exc:
            raise SystemExit(f"train: {exc}") from None
    if args.grid:
        _print_grid_result(args, result)
    else:
        _print_train_result(args, result)
    if args.save_model:
        save_model(result.model, args.save_model)
        print(f"saved {'winning ' if args.grid else ''}model to {args.save_model}")
    return 0


def _print_train_result(args, result) -> None:
    rows = [
        {
            "epoch": r.epoch,
            "lr": round(r.lr, 5),
            "train_loss": round(r.train_loss, 4),
            "train_score": round(r.train_score, 4),
            "test_score": round(r.test_score, 4) if r.test_score is not None else None,
        }
        for r in result.history.records
    ]
    title = f"{args.model} via {result.query.strategy}"
    if args.where:
        title += f" WHERE {args.where}"
    if args.workers > 1:
        title += f" x{args.workers} workers ({args.aggregation})"
    print(format_table(rows, title=title))
    d = result.query.extra.get("where")
    if d is None:
        return
    via = f" via index {d['index']} on {d['index_column']}" if d["index"] else ""
    print(
        f"\nWHERE {d['predicate']}: {d['n_matching']} / {d['n_tuples']} tuples "
        f"({100 * d['selectivity']:.1f}% selectivity) -> fetch={d['fetch']}{via}"
    )
    physical = d.get("physical")
    if physical:
        print(
            f"physical: {physical['blocks_loaded']} blocks loaded, "
            f"{physical['pages_fetched']} page fetches, "
            f"{physical['device_page_reads']} device page reads"
        )


def _print_grid_result(args, result) -> None:
    """The leaderboard plus the hop schedule's cost summary."""
    rows = [
        {
            "rank": row["rank"],
            "config": row["label"],
            "model_id": row["model_id"],
            "train_loss": round(row["final_train_loss"], 4),
            "train_score": round(row["final_train_score"], 4),
            "epochs": row["epochs_run"],
        }
        for row in result.leaderboard
    ]
    hopper = result.query.extra["hopper"]
    sched = hopper["schedule"]
    print(
        format_table(
            rows,
            title=(
                f"{args.model} grid ({args.grid}) — "
                f"{sched['n_models']} models x {sched['n_workers']} workers"
            ),
        )
    )
    print(
        f"\nmodel hopper: {sched['total_slots']} sub-epoch slots "
        f"(bubble {sched['bubble_ratio']:.2f}x vs a perfect pipeline); "
        f"{hopper['tuples_processed']} tuples in {hopper['wall_seconds']:.2f}s; "
        f"best = {result.leaderboard[0]['label']}"
    )


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset = _load_input(args)
    predictions = model.predict(dataset.X)
    score = model.score(dataset.X, dataset.y)
    metric = "R^2" if dataset.task == "regression" else "accuracy"
    print(f"{predictions.size} predictions; {metric} = {score:.4f}")
    return 0


def _cmd_explain(args) -> int:
    dataset = _apply_order(load(args.dataset, seed=0), args.order, 0)
    db = MiniDB(device=device_by_name(args.device), page_bytes=1024)
    db.create_table(args.dataset, dataset)
    _create_index(args, db, args.dataset)
    spec = TrainSpec(
        table=args.dataset,
        model=args.model,
        strategy=args.strategy,
        block_size=args.block_size,
        buffer_fraction=args.buffer_fraction,
        **_where_and_grid(args),
    )
    print(db.explain(spec))
    return 0


def _cmd_advise(args) -> int:
    """Print the cost advisor's per-device decision for one dataset.

    Without ``--device``, runs the same statement against hdd, ssd and nvm
    side by side — the quickest way to see the device flipping the choice
    (the Figure 20 regime on spinning disks vs the LIRS byte-addressable
    point where full random access is fine).
    """
    from .db.advisor import advise_strategy
    from .db.catalog import Catalog
    from .db.engine import ENGINE_PROFILE

    dataset = _apply_order(load(args.dataset, seed=args.seed), args.order, args.seed)
    table = Catalog(page_bytes=1024).create_table(args.dataset, dataset)
    devices = [args.device] if args.device else ["hdd", "ssd", "nvm"]
    for i, name in enumerate(devices):
        decision = advise_strategy(
            table,
            device_by_name(name),
            block_bytes=args.block_size,
            buffer_fraction=args.buffer_fraction,
            epochs=args.epochs,
            compute=ENGINE_PROFILE,
        )
        if i:
            print()
        print(decision.render())
    return 0


def _cmd_bench_io(args) -> int:
    device = device_by_name(args.device)
    sizes = [2**k for k in range(12, 28, 2)]
    rows = [
        {
            "block": f"{int(r['block_bytes']) // 1024}KB",
            "random MB/s": round(r["random_mb_per_s"], 2),
            "sequential MB/s": round(r["sequential_mb_per_s"], 1),
            "ratio": round(r["ratio"], 3),
        }
        for r in random_vs_sequential_curve(device, sizes)
    ]
    print(format_table(rows, title=f"{device.name}: random vs sequential"))
    return 0


def _cmd_loader_stats(args) -> int:
    """Exercise each concurrent loader for real and print its counters."""
    import tempfile
    from pathlib import Path

    from .core import (
        CorgiPileDataset,
        DataLoader as CoreDataLoader,
        MultiWorkerLoader,
        PrefetchLoader,
    )
    from .db import Catalog, overlap_report
    from .db.engine import ENGINE_PROFILE
    from .db.operators import SeqScanOperator, TupleShuffleOperator
    from .db.timing import RuntimeContext
    from .storage import SSD, write_block_file

    dataset = load(args.dataset, seed=args.seed)
    epochs = 1 if args.quick else args.epochs
    args.epochs = epochs
    rows = []

    def drain(loader, view):
        for epoch in range(args.epochs):
            view.set_epoch(epoch)
            for _ in loader:
                pass

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loader.blocks"
        write_block_file(dataset, path, args.block_tuples)

        prefetch_stats = obs.LoaderMetrics("prefetch")
        with CorgiPileDataset(
            path, buffer_blocks=args.buffer_blocks, seed=args.seed, stats=prefetch_stats
        ) as single:
            loader = PrefetchLoader(
                CoreDataLoader(single, batch_size=args.batch_size),
                depth=args.prefetch_depth,
                stats=prefetch_stats,
            )
            drain(loader, single)
        rows.append(overlap_report(prefetch_stats))

        multi_stats = obs.LoaderMetrics("multiworker")
        with MultiWorkerLoader(
            path,
            args.workers,
            args.buffer_blocks,
            batch_size=args.batch_size,
            seed=args.seed,
            prefetch_depth=args.prefetch_depth,
            stats=multi_stats,
        ) as multi:
            drain(multi, multi)
        rows.append(overlap_report(multi_stats))

    # Section 6.3's write thread: the synchronous TupleShuffle operator
    # filling the next buffer on a prefetch thread while this one drains.
    threaded_stats = obs.LoaderMetrics("threaded-tuple-shuffle")
    table = Catalog(page_bytes=1024).create_table(args.dataset, dataset)
    ctx = RuntimeContext(device=SSD, compute=ENGINE_PROFILE)
    op = TupleShuffleOperator(
        SeqScanOperator(table, ctx), ctx, args.buffer_tuples, seed=args.seed,
        stats=threaded_stats,
    )
    op.open()
    for epoch in range(args.epochs):
        for _ in PrefetchLoader(iter(op.next_batch, None), depth=1, stats=threaded_stats):
            pass
        if epoch + 1 < args.epochs:
            op.rescan()
    op.close()
    rows.append(overlap_report(threaded_stats))

    # One merged row across all loaders — the cross-process/-thread merge
    # the parallel engine uses, exercised here on the CLI path.  Each scope
    # is also exported into the session registry under ``loader.<name>.``,
    # so a --metrics-out snapshot carries the numbers the table shows.
    total = obs.LoaderMetrics("TOTAL")
    for stats in (prefetch_stats, multi_stats, threaded_stats):
        total.merge(stats)
        stats.to_registry(obs.get_registry(), prefix=f"loader.{stats.name}")
    rows.append(overlap_report(total.as_dict()))

    print(
        format_table(
            rows,
            title=f"loader observability — {args.dataset}, {args.epochs} epoch(s)",
        )
    )
    print(
        "\noverlap_fraction: share of cross-thread waiting borne by the producer"
        " (1.0 = loading fully hidden behind compute)"
    )
    return 0


def _cmd_chaos(args) -> int:
    """Train through fault-injected storage and verify equivalence.

    The statement is the one ``repro train --dataset D`` builds
    (:func:`_train_spec`), run on a heap table by ``MiniDB.train``: once on
    clean storage, once under a seeded :class:`~repro.faults.FaultPlan`
    (``MiniDB.inject_faults``), whose weights must be *bit-identical* —
    checksums and bounded retries absorb every transient fault.  With
    ``--crash-page N`` a third run is killed by a crash on its read of heap
    page N, and the statement run again on clean storage with the same
    ``checkpoint`` resumes it; its weights must equal the clean run's too.
    Exit code 0 iff every equivalence check passes.
    """
    import tempfile
    from pathlib import Path

    import numpy as np

    from .faults import FaultPlan, FaultSpec, InjectedCrash, chaos_report
    from .ml import CheckpointConfig

    if args.quick:
        args.epochs = min(args.epochs, 1)
    plan = FaultPlan(
        seed=args.seed,
        p_transient=args.p_transient,
        p_torn=args.p_torn,
        p_latency=args.p_latency,
        latency_s=args.latency_ms / 1e3,
        max_failures=args.max_failures,
    )
    train_args = build_parser().parse_args([
        "train", "--dataset", args.dataset, "--epochs", str(args.epochs),
        "--batch-size", str(args.batch_size), "--block-tuples", str(args.block_tuples),
        "--seed", str(args.seed),
    ])
    with MiniDB(page_bytes=4096) as db, tempfile.TemporaryDirectory() as tmp:
        clean_table = db.create_table("t", load(args.dataset, seed=args.seed))
        spec = _train_spec(train_args, "t", clean_table.tuple_bytes)
        clean = db.train(spec).model.parameter_vector()

        stats = db.inject_faults("t", plan, stats=obs.StorageMetrics("chaos"))
        ok = identical = np.array_equal(clean, db.train(spec).model.parameter_vector())
        # The printed row also lands in --metrics-out, under ``chaos.`` (the
        # scope already forwarded its retries to ``storage.retry.retries``).
        stats.to_registry(obs.get_registry(), prefix="chaos")
        print(format_table([chaos_report(stats, plan)], title="chaos run counters"))
        print(
            f"\nfaults injected: {stats.faults_injected}, retries: {stats.retries} — "
            f"faulty-run weights {'bit-identical to' if identical else 'DIFFER from'} "
            "clean run"
        )

        if args.crash_page is not None:
            checkpoint = CheckpointConfig(Path(tmp) / "chaos.ckpt.npz", every_tuples=1)
            crash = FaultSpec("crash", unit="page", target=args.crash_page)
            db.inject_faults("t", FaultPlan(specs=[crash]))
            try:
                db.train(spec, checkpoint=checkpoint)
                print(f"\ncrash-page {args.crash_page}: run finished before the crash point")
            except InjectedCrash as exc:
                db.catalog.replace_table("t", clean_table)
                resumed = db.train(spec, checkpoint=checkpoint).model.parameter_vector()
                diff = float(np.max(np.abs(clean - resumed)))
                ok &= diff == 0.0
                print(
                    f"\n{exc}; resumed from its checkpoint: max weight diff vs "
                    f"uninterrupted run = {diff} ({'OK' if diff == 0.0 else 'MISMATCH'})"
                )

    print(f"\nchaos verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_obs_report(args) -> int:
    """Render an exported trace (and metrics) as the summary tree.

    With ``--validate``, the trace is first checked against the pinned
    JSON schema (``docs/obs_trace.schema.json``); any violation prints and
    fails the command — this is what the CI ``obs-smoke`` job runs.
    """
    import json

    from .obs import (
        Registry,
        load_schema,
        read_trace_jsonl,
        render_report,
        validate_events,
    )

    meta, events = read_trace_jsonl(args.trace)
    if args.validate:
        errors = validate_events(meta, events, load_schema(args.schema))
        if errors:
            for problem in errors:
                print(f"INVALID: {problem}")
            print(f"\n{args.trace}: {len(errors)} schema violation(s)")
            return 1
        print(
            f"{args.trace}: valid (version {meta.get('version')}, "
            f"{meta.get('span_count')} spans, {meta.get('dropped')} dropped)"
        )
    registry = None
    snapshot = next((e for e in events if e.get("type") == "metrics"), None)
    if args.metrics:
        with open(args.metrics) as fh:
            snapshot = json.load(fh)
    if snapshot is not None:
        registry = Registry.from_snapshot(snapshot)
    print(render_report(events, registry=registry, max_depth=args.max_depth))
    return 0


def _cmd_serve(args) -> int:
    import signal

    from .serve import ReproServer

    server = ReproServer(
        args.data_dir,
        host=args.host,
        port=args.port,
        max_queued=args.max_queued,
        job_workers=args.job_workers,
        checkpoint_every_tuples=args.checkpoint_every,
        device=args.device,
    )
    server.start()
    print(f"repro daemon listening on {server.host}:{server.port}")
    print(f"state dir: {server.data_dir}")

    def _graceful(_signum, _frame):
        server._shutdown_requested.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(ValueError):  # non-main threads in tests
            signal.signal(sig, _graceful)
    server.serve_forever()
    print("daemon stopped")
    return 0


def _cmd_client(args) -> int:
    from .serve import ReproClient, ServerError

    if args.data_dir is None and (args.host is None or args.port is None):
        print("client needs --data-dir or --host/--port", file=sys.stderr)
        return 2
    if args.data_dir is not None:
        client = ReproClient.from_server_file(args.data_dir)
    else:
        client = ReproClient(args.host, args.port)
    exit_code = 0
    with client:
        try:
            if args.load:
                info = client.load(
                    args.load,
                    table=args.table,
                    order=args.order,
                    seed=args.seed,
                )
                print(
                    f"loaded {info['table']}: {info['n_tuples']} tuples x "
                    f"{info['n_features']} features ({info['order']})"
                )
            for statement in args.execute:
                response = client.sql(statement)
                if "job_id" in response:
                    print(f"submitted {response['job_id']}")
                    if args.wait:
                        final = client.wait(response["job_id"])
                        print(f"{final['job_id']}: {final['state']}", end="")
                        if final.get("result"):
                            print(f" {final['result']}", end="")
                        if final.get("error"):
                            print(f" ({final['error']})", end="")
                        print()
                        if final["state"] != "done":
                            exit_code = 1
                else:
                    _print_json(response)
            if args.status:
                _print_json(client.status(args.status))
            if args.cancel:
                _print_json(client.cancel(args.cancel))
            if args.jobs:
                for job in client.jobs(all_sessions=True):
                    line = f"{job['job_id']:<8} {job['state']:<10} {job.get('table', '')}"
                    if job.get("result"):
                        line += f" loss={job['result'].get('final_train_loss')}"
                    print(line)
            if args.stats:
                _print_json(client.stats())
            if args.shutdown:
                client.shutdown()
                print("daemon shutting down")
                return exit_code
        except ServerError as exc:
            print(f"server error: {exc}", file=sys.stderr)
            return 1
    return exit_code


def _print_json(payload) -> None:
    import json

    payload = dict(payload)
    payload.pop("ok", None)
    print(json.dumps(payload, indent=2, default=str))


_COMMANDS = {
    "info": _cmd_info,
    "generate": _cmd_generate,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "explain": _cmd_explain,
    "advise": _cmd_advise,
    "bench-io": _cmd_bench_io,
    "loader-stats": _cmd_loader_stats,
    "chaos": _cmd_chaos,
    "obs-report": _cmd_obs_report,
    "serve": _cmd_serve,
    "client": _cmd_client,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _telemetry(args):
            return _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `repro info | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
