"""One epoch loop: ``Trainer``, ``SGDOperator`` and the data-parallel
``ParallelTrainer`` run ``repro.ml.trainer.run_epochs``.

* **The cross-driver invariant** the fold rests on: fed the id stream the
  plan's pipeline emits, the array ``Trainer`` and the engine's
  ``SGDOperator`` compute the same bits (``lr`` with ``l2 = 0``, so where a
  driver cuts its units is not part of the result).  It held before the
  drivers shared a loop — this test passes against the parent checkout
  ``8d1c4b9`` unchanged — which is why sharing one changed no bits.
* **Kill/resume per client, through the shared loop**: ``Trainer`` (cadence
  not a multiple of the batch size, killed mid-chunk); the ``SGDOperator``
  leg is ``tests/test_conformance.py``'s kill/resume matrix and the
  ``ParallelTrainer`` one ``tests/test_parallel_engine.py``'s.
  A killed run resumes because its checkpoint file exists.
* **The loop cannot fork again**: a source-level gate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_binary_dense, make_binary_sparse
from repro.db import MiniDB
from repro.db.engine import ENGINE_PROFILE
from repro.db.spec import TrainSpec
from repro.db.timing import RuntimeContext
from repro.faults import InjectedCrash
from repro.ml import (
    CheckpointConfig,
    ExponentialDecay,
    LinearSVM,
    LogisticRegression,
    Trainer,
    fixed_order_source,
    load_checkpoint,
)
from repro.shuffle import EpochShuffle
from repro.storage import SSD

from . import _oracles
from .conftest import killed_at_tuple

SEED = 5
MODES = {"fused": {}, "minibatch": {"batch_size": 32}}


def _dataset(kind: str):
    if kind == "dense":
        return make_binary_dense(700, 6, separation=1.2, seed=11)
    return make_binary_sparse(520, 60, nnz_per_row=6, separation=1.0, seed=9)


def _weights(model) -> np.ndarray:
    return np.asarray(model.parameter_vector())


# ----------------------------------------------------------------------
# Trainer over the pipeline's id stream == MiniDB.train
# ----------------------------------------------------------------------


def _pipeline_orders(db: MiniDB, spec: TrainSpec) -> list[np.ndarray]:
    """The tuple ids the plan's operator tree emits, one array per epoch."""
    plan, table = db.plan(spec), db.catalog.get("t")
    ctx = RuntimeContext(
        device=SSD, compute=ENGINE_PROFILE, double_buffer=plan.double_buffer,
        values_per_tuple=table.values_per_tuple,
    )
    pipeline, _scan = db._build_pipeline(plan, table, ctx)
    pipeline.open()
    orders = []
    for epoch in range(spec.epochs):
        orders.append(np.concatenate([np.asarray(b.ids) for b in iter(pipeline.next_batch, None)]))
        if epoch + 1 < spec.epochs:
            pipeline.rescan()
    pipeline.close()
    return orders


@pytest.mark.parametrize("mode", MODES, ids=list(MODES))
@pytest.mark.parametrize("layout", ["row", "columnar"])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_trainer_fed_the_pipeline_order_equals_the_engine(kind, layout, mode):
    dataset = _dataset(kind)
    spec = TrainSpec(
        table="t", model="lr", l2=0.0, strategy="corgipile", epochs=2, lr=0.05, decay=0.9,
        seed=SEED, block_size=2048, buffer_fraction=0.2, **MODES[mode],
    )

    def engine() -> MiniDB:
        db = MiniDB(page_bytes=1024, pool_pages=8)
        db.create_table("t", dataset, layout=layout)
        return db

    orders = _pipeline_orders(engine(), spec)
    assert [o.size for o in orders] == [dataset.n_tuples] * 2
    assert not np.array_equal(orders[0], orders[1])
    model = LogisticRegression(dataset.n_features, l2=0.0)
    Trainer(
        model, dataset, fixed_order_source("pipeline", orders), epochs=spec.epochs,
        schedule=ExponentialDecay(spec.lr, spec.decay), batch_size=spec.batch_size,
    ).run()
    np.testing.assert_array_equal(_weights(model), _weights(engine().train(spec).model))


# ----------------------------------------------------------------------
# Kill/resume through the shared loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES, ids=list(MODES))
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_trainer_crashed_mid_chunk_resumes_to_the_uninterrupted_weights(tmp_path, kind, mode):
    """Cadence 100 against batches of 32: save points fall on batch (96) or
    cadence (100) multiples, the crash lands inside a chunk, and the resumed
    run replays the chunk sequence of the uninterrupted one — LinearSVM's
    ``l2`` makes that sequence part of the bits."""
    dataset = _dataset(kind)
    epochs, crash_at = 3, dataset.n_tuples + 137  # epoch 1, between two save points

    def trainer(ckpath, **knobs):
        model = LinearSVM(dataset.n_features)
        return model, Trainer(
            model, dataset, EpochShuffle(dataset.n_tuples, seed=SEED), epochs=epochs,
            schedule=ExponentialDecay(0.05, 0.9),
            checkpoint=CheckpointConfig(ckpath, every_tuples=100),
            **{**MODES[mode], **knobs},
        )

    base_model, base = trainer(tmp_path / "base.npz")
    base_history = base.run()
    ckpath = tmp_path / "run.npz"
    _crashed_model, crashed = trainer(ckpath)
    with pytest.raises(InjectedCrash), killed_at_tuple(crash_at):
        crashed.run()
    state = load_checkpoint(ckpath)
    every = 96 if mode == "minibatch" else 100
    assert (state.epoch, state.cursor) == (1, 137 // every * every)
    assert state.tuples_seen == dataset.n_tuples + state.cursor

    resumed_model, resumed = trainer(ckpath)
    resumed_history = resumed.run()
    np.testing.assert_array_equal(_weights(resumed_model), _weights(base_model))
    assert resumed_history.train_losses == base_history.train_losses
    assert resumed_history.final.tuples_seen == epochs * dataset.n_tuples
    with pytest.raises(ValueError, match="checkpoint was taken with batch_size="):
        trainer(ckpath, batch_size=16)[1].run()


def test_sgd_operator_checkpoint_keeps_its_meta_keys_and_row_cursor(tmp_path):
    """What a daemon of the parent commit wrote must stay resumable: the
    ``sgd-operator`` checkpoint's ``meta`` key set, its cursor in rows, and
    saves at unit boundaries only."""
    from repro.ml.trainer import TrainInterrupted

    dataset = _dataset("dense")
    db = MiniDB(page_bytes=1024, pool_pages=8)
    db.create_table("t", dataset)
    spec = TrainSpec(
        table="t", model="lr", epochs=2, lr=0.05, seed=SEED, block_size=2048
    )
    checkpoint = CheckpointConfig(tmp_path / "job.ckpt.npz", every_tuples=300)
    probes = []
    with pytest.raises(TrainInterrupted, match="stopped in epoch 0 after 512 tuples"):
        db.train(
            spec, checkpoint=checkpoint,
            should_stop=lambda: probes.append(None) or len(probes) >= 2,
        )
    state = load_checkpoint(checkpoint.path)
    assert (state.epoch, state.cursor, state.tuples_seen) == (0, 512, 512)  # 2 units of 256
    assert set(state.meta) == {
        "mode", "model", "batch_size", "fused", "fuse_chunk", "strategy", "seed", "lr", "decay",
        "block_size", "buffer_tuples", "n_tuples", "epoch_wall_times", "measured_wall_times",
    }
    assert state.meta["mode"] == "sgd-operator"
    assert (state.meta["fused"], state.meta["fuse_chunk"]) == (True, 256)


# ----------------------------------------------------------------------
# The gate: one loop, one fill
# ----------------------------------------------------------------------


def test_the_update_unit_loop_and_the_fill_exist_once():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    sources = {p.relative_to(src).as_posix(): p.read_text() for p in src.rglob("*.py")}

    def files_calling(pattern: str) -> set[str]:
        return {name for name, code in sources.items() if re.search(pattern, code)}

    assert files_calling(r"\brestore_run\(") == {"ml/trainer.py"}
    assert files_calling(r"\bsave_checkpoint\(") - {"ml/persistence.py"} == {"ml/trainer.py"}
    # The data-parallel coordinator is a run_epochs client, not a second
    # loop: the one method there that walks the run's epochs is the seam
    # planner, a pure function of the plan that trains nothing.
    epoch_loops = {
        fn.name
        for fn in ast.walk(ast.parse(sources["parallel/engine.py"]))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.For) and ast.unparse(node.target) == "epoch"
    }
    assert epoch_loops == {"_sync_seams"}
    assert all(name.startswith("ml/models/") for name in files_calling(r"\bstep_example\("))
    deleted = re.compile(
        r"step_chunks|iter_fills|ChunkFill|train_streaming_chunks|glm_epoch_\w+_chunks|"
        r"_concat_features|_stack_sparse|SegmentedMiniDB|DistributedTrainResult|"
        r"train_streaming|ml\.streaming"
    )
    assert files_calling(deleted.pattern) == set()
    # One way to stop a run (should_stop, or a real crash) and one rule to
    # resume it (its checkpoint file exists): no tuple-budget crash, no
    # explicit resume argument, no racing mode that cannot replay.
    assert files_calling(
        r"crash_at_tuple|tuples_before_crash|resume_from|fault_plan|_run_async|_async_epoch"
    ) == set()
    # Only resume_state reads a checkpoint to resume.
    assert files_calling(r"\bload_checkpoint\(") - {"ml/persistence.py"} == {"ml/trainer.py"}
    # The test oracles live in tests/_oracles.py, not in the program.
    for name in ("ShuffleBuffer", "sync_reference_trainer", "run_hopper_inprocess"):
        assert hasattr(_oracles, name) and files_calling(rf"\b{name}\b") == set(), name
    # One per-tuple path: the unbound reference loop is reachable from tests
    # only (test_one_per_tuple_update_path holds the signatures).
    assert files_calling(r"\bSupervisedModel\.step_block\(") == set()
    # A spawned worker's import path must not grow: parallel/ stays off db/.
    assert not any(
        re.search(r"^\s*(from|import)\s+(\.\.db|repro\.db)\b", code, re.M)
        for name, code in sources.items() if name.startswith("parallel/")
    )


def test_one_per_tuple_update_path():
    """A per-tuple unit is always the model's ``step_block`` kernel: no
    trainer, loop or operator takes a switch to the unfused reference loop
    or a unit size, and a unit's size is the one ``FUSE_CHUNK``."""
    import inspect

    from repro.db.operators import FUSE_CHUNK, SGDOperator
    from repro.ml.trainer import apply_unit, run_epochs

    for fn in (apply_unit, run_epochs, Trainer, SGDOperator):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"fused", "fuse_chunk"}, fn.__name__
    assert FUSE_CHUNK == 256
    assert "fused" not in {f.name for f in fields(TrainSpec)}
    assert "double_buffer" not in {f.name for f in fields(TrainSpec)}


def test_one_way_to_stop_and_one_rule_to_resume():
    """Every trainer resumes from its own ``checkpoint`` file, and the
    engine's trainers stop at ``should_stop``: none takes a fault plan or a
    state to resume from."""
    import inspect

    from repro.db.operators import SGDOperator
    from repro.parallel import ParallelTrainer

    for fn in (Trainer, ParallelTrainer, SGDOperator):
        params = set(inspect.signature(fn).parameters)
        assert "checkpoint" in params, fn.__name__
        assert not params & {"fault_plan", "resume_from"}, fn.__name__
        assert ("should_stop" in params) == (fn in (ParallelTrainer, SGDOperator)), fn.__name__
    for run in (Trainer.run, ParallelTrainer.run):
        assert list(inspect.signature(run).parameters) == ["self"]


def test_one_row_api_the_per_tuple_read_path_is_gone():
    """``TupleBatch`` is the only bulk row unit: no layer defines or calls the
    per-tuple read API again, and ``TrainingTuple`` is the single-row record
    of DML and point reads only."""
    import repro.core

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    sources = {p.relative_to(src).as_posix(): p.read_text() for p in src.rglob("*.py")}
    deleted = {
        "TupleBatch.to_tuples / LazyTupleBatch.to_tuples": r"\bto_tuples\b",
        "BufferPool.get_page / get_page_traced": r"\bget_page(_traced)?\b",
        "BufferPool.refresh": r"\brefresh\b",
        "HeapFile.scan": r"\.scan\(|def scan\(self",
        "HeapFile.read_page": r"\bread_page\(",
        "HeapFile.read_block / BlockFileReader.read_block": r"\bread_block\(",
        "PhysicalOperator.next": r"\.next\(\)|def next\(",
        "core.dataloader.collate": r"\bcollate\b",
        "core.dataloader.Batch": r"\bBatch\b",
    }
    for name, pattern in deleted.items():
        assert [f for f, code in sources.items() if re.search(pattern, code)] == [], name
    for module in ("db/operators.py", "core/dataset.py"):  # operators and the dataset
        assert "def __iter__" not in sources[module]
    assert {f for f, code in sources.items() if "TrainingTuple" in code} == {
        "storage/codec.py", "storage/heapfile.py", "storage/__init__.py",
    }
    assert repro.core.__all__ == [
        "CorgiPileShuffle", "pipelined_time", "serial_time",
        "CorgiPileDataset", "DataLoader", "MultiProcessCorgiPile", "PrefetchLoader",
        "MultiWorkerLoader", "derive_rng", "epoch_rng", "worker_rng", "stream_rng",
        "fault_unit_rng",
    ]


def test_one_stopwatch_and_one_block_file_fill():
    """benchmarks/e2e is the only wall clock: the legacy bench engines, their
    modeled walls and CLI command are gone, and so is the second fill.  Block
    files are row records only: the columnar block-file layout, its pruned
    chunk reads and fault unit, and ``repro migrate`` are gone."""
    import repro.bench
    from repro.cli import build_parser

    src = Path(__file__).resolve().parents[1] / "src"
    deleted = re.compile(
        r"kernelbench|parallelbench|mopbench|modeled_walls|ShardFetcher|cold_cache_per_query|"
        r"migrate_file|MigrationReport|chunk_fault_target|from_chunks|columns_for|"
        r"training_columns|materialize_corgi2|_read_chunk_"
    )
    assert [p.as_posix() for p in src.rglob("*.py") if deleted.search(p.read_text())] == []
    assert set(repro.bench.__all__) == {
        "format_table", "format_curve", "save_records",
        "ConvergenceSweep", "run_convergence_sweep", "history_row", "time_best",
    }
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert "kernel-bench" not in commands.choices and len(commands.choices) == 12
    # ``train --workers N`` is the one CLI route to the parallel engine.
    assert "parallel-train" not in commands.choices


def test_one_prefetcher_and_one_shard_plan():
    """Section 6.3's write thread is a ``PrefetchLoader`` over the synchronous
    TupleShuffle operator, and Section 5's shard plan is one class: the fill
    is defined once, one module starts producer threads for loaders, one
    splits a block permutation across workers, and the second copies are
    gone."""
    import importlib

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    sources = {p.relative_to(src).as_posix(): p.read_text() for p in src.rglob("*.py")}

    def files_matching(pattern: str) -> set[str]:
        return {name for name, code in sources.items() if re.search(pattern, code)}

    # The tuple-shuffle fill: one TUPLE_SHUFFLE_STREAM draw, in one class.
    assert files_matching(r"stream_rng\([^)]*TUPLE_SHUFFLE_STREAM") == {"db/operators.py"}
    assert files_matching(r"\bshuffled_fill\b") == set()
    assert {f for f in files_matching(r"threading\.Thread\(") if f.startswith("core/")} == {
        "core/prefetch.py"
    }
    assert files_matching(r"np\.array_split\(") == {"core/distributed.py"}
    for gone in ("repro.db.threaded", "repro.parallel.plan", "repro.core.lifecycle"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)
