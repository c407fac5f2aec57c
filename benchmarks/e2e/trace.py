"""The traced pass: spans recorded from the benchmark's side of each seam.

Nothing under ``src/`` is edited.  :func:`install` swaps the callables at
each layer boundary for timing wrappers — patching the name each *caller*
resolves (``repro.db.engine.parse_query``, not just
``repro.db.query.parse_query``) — and :func:`uninstall` puts the
originals back.  A span is ``(id, parent, name, start, end)``; spans of one
statement share the id of their root span.  Spans stay in memory until the
run ends, then :func:`write_jsonl` writes them in the line format of
``docs/obs_trace.schema.json``.

A layer's **self time** is its span minus the part its child spans cover,
so the self times of every name sum to the wall of the root spans — that
identity is asserted by the driver, not assumed.

Seams are looked up tolerantly: a refactor that removes one (the per-tuple
``next()`` is ROADMAP item 1's target) must not break the benchmark a later
PR is judged by.  A missing seam is reported in ``trace.seams_missing``;
its time folds into the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "install", "uninstall", "write_jsonl", "SEAMS"]


class Recorder:
    """In-memory span store + counters for one traced section."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1)
        self.counters: dict[str, float] = defaultdict(float)
        self.leaves: dict[int, tuple[int, int]] = {}  # tree id -> (entries, leaves)
        self.base_wall = time.time() - time.perf_counter()
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- analysis -------------------------------------------------------
    def summary(self) -> dict:
        """Per-name ``self_s`` / ``incl_s`` / ``calls`` plus root wall."""
        child_s: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, t0, t1 in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_s = 0.0
        for sid, parent, name, t0, t1 in self.spans:
            dur = t1 - t0
            self_s[name] += dur - child_s.get(sid, 0.0)
            incl_s[name] += dur
            calls[name] += 1
            if parent is None:
                root_s += dur
        return {"self_s": self_s, "incl_s": incl_s, "calls": calls, "root_s": root_s}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _span_wrapper(rec: Recorder, name: str, fn, hook=None):
    perf = time.perf_counter
    ids = rec._ids
    spans = rec.spans
    get_stack = rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = get_stack()
        sid = next(ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            spans.append((sid, parent, name, t0, t1))
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def _materialising_wrapper(rec: Recorder, name: str, fn, hook=None):
    """For generator *functions* whose callers always drain them (index
    range scans): run the generator to the end inside one span."""

    def drain(*args, **kwargs):
        return list(fn(*args, **kwargs))

    timed = _span_wrapper(rec, name, drain, hook)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return iter(timed(*args, **kwargs))

    return wrapper


def _generator_wrapper(rec: Recorder, name: str, fn, hook=None):
    """For generators consumed lazily (loader batches, buffer fills): one
    span per resumption, so the consumer's work between items is excluded."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        step = _span_wrapper(rec, name, fn(*args, **kwargs).__next__)

        def generate():
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return generate()

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn, hook=None):
    """Per-tuple seams: counted, never timed (two clock reads per tuple
    would cost more than the call)."""
    counters = rec.counters

    if hook is None:  # next(self): no argument packing on the hottest seam

        @functools.wraps(fn)
        def wrapper(self):
            counters[name] += 1
            return fn(self)

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[name] += 1
        hook(rec, args, kwargs, None)
        return fn(*args, **kwargs)

    return wrapper


_KINDS = {
    "span": _span_wrapper,
    "drain": _materialising_wrapper,
    "gen": _generator_wrapper,
    "count": _count_wrapper,
}


# ----------------------------------------------------------------------
# Count hooks: (recorder, args, kwargs, result)
# ----------------------------------------------------------------------


def _h_decode_page(rec, args, kwargs, result):
    rec.counters["storage.codec.decoded_bytes"] += len(args[0])


def _h_columnar(rec, args, kwargs, result):
    rec.counters["storage.columnar.decoded_bytes"] += getattr(args[0], "decoded_nbytes", 0)


def _h_step(rec, args, kwargs, result):
    # step_block(self, X, y, lr) / step_chunks(self, batches, order, lr)
    rec.counters["ml.kernels.tuples"] += len(args[2])


def _h_encode_frame(rec, args, kwargs, result):
    rec.counters["serve.protocol.bytes"] += len(result)


def _h_decode_frame(rec, args, kwargs, result):
    rec.counters["serve.protocol.bytes"] += len(args[0])


def _h_persist(rec, args, kwargs, result):
    path = getattr(args[0], "path", None)
    if path is not None:
        try:
            rec.counters["storage.index.bytes_written"] += path.stat().st_size
        except OSError:
            pass


def _h_checkpoint(rec, args, kwargs, result):
    try:
        rec.counters["ml.persistence.checkpoint_bytes"] += result.stat().st_size
    except (AttributeError, OSError):
        pass


def _h_index_range(rec, args, kwargs, result):
    # Nodes are not observable from outside the tree; estimate the descent
    # (height) plus the leaves the returned entries span at mean leaf fill.
    tree = args[0]
    cached = rec.leaves.get(id(tree))
    if cached is None or abs(cached[0] - tree.n_entries) > 64:
        leaves = sum(1 for _nid, node in tree.nodes() if node.is_leaf)
        rec.leaves[id(tree)] = cached = (tree.n_entries, leaves)
    fill = max(1.0, tree.n_entries / max(1, cached[1]))
    rec.counters["storage.index.nodes_read"] += tree.height + int(len(result) / fill)
    rec.counters["storage.index.entries_scanned"] += len(result)


def _h_device_read(rec, args, kwargs, result):
    # charge_device_read(self, n_bytes, random, count=1)
    count = kwargs.get("count", args[3] if len(args) > 3 else 1)
    rec.counters["storage.iomodel.device_bytes"] += args[1] * count


# ----------------------------------------------------------------------
# The seam table: (owner, attribute, span name, kind, hook)
# owner is "module" or "module:Class".
# ----------------------------------------------------------------------

SEAMS = [
    # db.query — each caller's own binding of parse_query
    ("repro.db.engine", "parse_query", "db.query.parse", "span", None),
    ("repro.serve.session", "parse_query", "db.query.parse", "span", None),
    # db.engine — statement roots; self time here is what no layer claims
    ("repro.db.engine:MiniDB", "execute", "db.engine", "span", None),
    ("repro.db.engine:MiniDB", "train", "db.engine", "span", None),
    ("repro.db.engine:MiniDB", "select", "db.engine", "span", None),
    ("repro.db.engine:MiniDB", "predict", "db.engine", "span", None),
    ("repro.db.engine:MiniDB", "insert", "db.engine", "span", None),
    ("repro.db.engine:MiniDB", "delete", "db.engine", "span", None),
    ("repro.db.engine:MiniDB", "update", "db.engine", "span", None),
    ("repro.db.engine:MiniDB", "create_index", "db.engine", "span", None),
    # storage.bufferpool
    ("repro.storage.bufferpool:BufferPool", "get_page_traced", "storage.bufferpool.get", "span", None),
    ("repro.storage.bufferpool:BufferPool", "get_batch_traced", "storage.bufferpool.get", "span", None),
    # storage.codec — bulk decode, then the per-tuple explode
    ("repro.storage.heapfile", "decode_page", "storage.codec.decode", "span", _h_decode_page),
    ("repro.storage.blockfile", "decode_block", "storage.codec.decode", "span", _h_decode_page),
    ("repro.storage.codec:TupleBatch", "to_tuples", "storage.codec.explode", "span", None),
    # storage.columnar — the header parse is eager, the chunks decode lazily
    ("repro.storage.heapfile", "decode_block_columnar", "storage.columnar.decode", "span", None),
    ("repro.storage.columnar:LazyTupleBatch", "to_tuples", "storage.columnar.decode", "span", _h_columnar),
    ("repro.storage.columnar:LazyTupleBatch", "materialize", "storage.columnar.decode", "span", _h_columnar),
    ("repro.storage.columnar:LazyTupleBatch", "features_matrix", "storage.columnar.decode", "span", _h_columnar),
    # storage.heapfile — slot-level DML
    ("repro.storage.heapfile:HeapFile", "insert", "storage.heapfile.dml", "span", None),
    ("repro.storage.heapfile:HeapFile", "delete", "storage.heapfile.dml", "span", None),
    ("repro.storage.heapfile:HeapFile", "update", "storage.heapfile.dml", "span", None),
    # storage.index
    ("repro.storage.index.bptree:BPlusTree", "range", "storage.index.scan", "drain", _h_index_range),
    ("repro.storage.index.bptree:BPlusTree", "insert", "storage.index.maintain", "span", None),
    ("repro.storage.index.bptree:BPlusTree", "delete", "storage.index.maintain", "span", None),
    ("repro.db.catalog:TableIndex", "persist", "storage.index.persist", "span", _h_persist),
    ("repro.db.catalog:TableInfo", "build_index", "storage.index.build", "span", None),
    # storage.blockfile
    ("repro.storage", "write_block_file", "storage.blockfile.write", "span", None),
    ("repro.storage.blockfile", "write_block_file", "storage.blockfile.write", "span", None),
    ("repro.serve.jobs", "write_block_file", "storage.blockfile.write", "span", None),
    ("repro.storage.blockfile:BlockFileReader", "read_block_batch", "storage.blockfile.read", "span", None),
    # storage.iomodel — the simulated device's exact byte count
    ("repro.db.timing:RuntimeContext", "charge_device_read", "storage.iomodel.device_reads", "count", _h_device_read),
    # db.operators — execute() is the public root of the Volcano pull loop;
    # per-tuple next() is counted only; _refill/_load_next_block are the two
    # private seams (the public seam at that boundary is the per-tuple one).
    ("repro.db.operators:SGDOperator", "execute", "db.operators.pull", "span", None),
    ("repro.db.operators:TupleShuffleOperator", "_refill", "db.operators.fill", "span", None),
    ("repro.db.operators:BlockShuffleOperator", "_load_next_block", "db.operators.block_load", "span", None),
    ("repro.db.operators:RidBlockShuffleOperator", "_load_next_block", "db.where.fetch", "span", None),
    ("repro.db.operators:RidBlockShuffleOperator", "open", "db.where.fetch", "span", None),
    ("repro.db.operators:BlockShuffleOperator", "next", "db.operators.next_calls", "count", None),
    ("repro.db.operators:RidBlockShuffleOperator", "next", "db.operators.next_calls", "count", None),
    ("repro.db.operators:TupleShuffleOperator", "next", "db.operators.next_calls", "count", None),
    # db.where
    ("repro.db.where", "plan_where_access", "db.where.plan", "span", None),
    ("repro.db.where", "choose_where_path", "db.where.plan", "span", None),
    ("repro.db.where", "subset_partition", "db.where.plan", "span", None),
    ("repro.db.where", "index_qualifying_positions", "db.where.plan", "span", None),
    ("repro.db.where", "qualifying_positions", "db.where.plan", "span", None),
    ("repro.db.where", "index_candidates", "db.where.plan", "span", None),
    # db.catalog — self time is the post-DML dataset rebuild
    ("repro.db.catalog:TableInfo", "insert_rows", "db.catalog.dml", "span", None),
    ("repro.db.catalog:TableInfo", "delete_rids", "db.catalog.dml", "span", None),
    ("repro.db.catalog:TableInfo", "update_rids", "db.catalog.dml", "span", None),
    # core
    ("repro.core.dataloader", "collate", "core.dataloader.collate", "span", None),
    ("repro.core.dataloader:DataLoader", "__iter__", "core.dataset.fill", "gen", None),
    ("repro.core.dataset:CorgiPileDataset", "iter_fills", "core.dataset.fill", "gen", None),
    # ml
    ("repro.ml.models.linear:GeneralizedLinearModel", "step_block", "ml.kernels.step", "span", _h_step),
    ("repro.ml.models.linear:GeneralizedLinearModel", "step_chunks", "ml.kernels.step", "span", _h_step),
    ("repro.ml.models.linear:GeneralizedLinearModel", "loss", "db.engine.evaluate", "span", None),
    ("repro.ml.models.linear:LogisticRegression", "score", "db.engine.evaluate", "span", None),
    ("repro.ml.models.linear:LinearSVM", "score", "db.engine.evaluate", "span", None),
    ("repro.ml.streaming", "save_checkpoint", "ml.persistence.checkpoint", "span", _h_checkpoint),
    ("repro.ml.trainer", "save_checkpoint", "ml.persistence.checkpoint", "span", _h_checkpoint),
    ("repro.parallel.engine", "save_checkpoint", "ml.persistence.checkpoint", "span", _h_checkpoint),
    ("repro.ml.persistence", "durable_write", "ml.persistence.durable_write", "span", None),
    ("repro.serve.jobs", "durable_write", "ml.persistence.durable_write", "span", None),
    ("repro.serve.server", "durable_write", "ml.persistence.durable_write", "span", None),
    # parallel
    ("repro.parallel.engine:ParallelTrainer", "run", "parallel.run", "span", None),
    ("repro.parallel.hopper:HopperEngine", "run", "parallel.hopper.run", "span", None),
    # serve
    ("repro.serve.protocol", "encode_frame", "serve.protocol.encode", "span", _h_encode_frame),
    ("repro.serve.protocol", "decode_frame", "serve.protocol.decode", "span", _h_decode_frame),
    ("repro.serve.session:Session", "handle", "serve.session.dispatch", "span", None),
    ("repro.serve.jobs:Job", "transition", "serve.jobs.journal_write", "span", None),
    ("repro.serve.jobs:JobManager", "_execute", "serve.jobs.run", "span", None),
]


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, cls) if cls else target


def install(rec: Recorder) -> tuple[list, list]:
    """Patch every seam that exists; returns ``(undo, missing)``."""
    undo, missing = [], []
    for owner, attr, name, kind, hook in SEAMS:
        try:
            target = _resolve(owner)
            original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{owner}.{attr}")
            continue
        setattr(target, attr, _KINDS[kind](rec, name, original, hook))
        undo.append((target, attr, original))
    return undo, missing


def uninstall(undo: list) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


def write_jsonl(rec: Recorder, path, workload: str) -> int:
    """Write the spans in the ``repro.obs`` JSONL line format."""
    parent_of = {sid: parent for sid, parent, _n, _a, _b in rec.spans}

    def root(sid: int) -> int:
        while parent_of.get(sid) is not None:
            sid = parent_of[sid]
        return sid

    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                {
                    "type": "meta",
                    "version": 1,
                    "base_wall": rec.base_wall,
                    "span_count": len(rec.spans),
                    "dropped": 0,
                }
            )
            + "\n"
        )
        for sid, parent, name, t0, t1 in rec.spans:
            fh.write(
                json.dumps(
                    {
                        "type": "span",
                        "id": sid,
                        "parent": parent,
                        "name": name,
                        "start_s": t0,
                        "end_s": t1,
                        "duration_s": t1 - t0,
                        "wall_start": rec.base_wall + t0,
                        "attrs": {"stmt": root(sid), "workload": workload},
                    }
                )
                + "\n"
            )
    return len(rec.spans)
