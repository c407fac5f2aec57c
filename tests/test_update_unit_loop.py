"""One update-unit loop: ``Trainer``, ``train_streaming`` and ``SGDOperator``
run ``repro.ml.trainer.run_epochs``.

* **The cross-driver invariant** the fold rests on: fed the id stream the
  plan's pipeline emits, the array ``Trainer`` and the engine's
  ``SGDOperator`` compute the same bits (``lr`` with ``l2 = 0``, so where a
  driver cuts its units is not part of the result).  It held before the
  drivers shared a loop — this test passes against the parent checkout
  ``8d1c4b9`` unchanged — which is why sharing one changed no bits.
* **Kill/resume per client, through the shared loop**: ``Trainer`` (cadence
  not a multiple of the batch size, crash mid-chunk), ``train_streaming``
  (crash at a batch boundary, resumed behind a prefetch thread); the
  ``SGDOperator`` leg is ``tests/test_conformance.py``'s kill/resume matrix.
* **The loop cannot fork again**: a source-level gate.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import CorgiPileDataset, DataLoader
from repro.data import make_binary_dense, make_binary_sparse
from repro.db import MiniDB
from repro.db.engine import ENGINE_PROFILE
from repro.db.spec import TrainSpec
from repro.db.timing import RuntimeContext
from repro.faults import FaultPlan, InjectedCrash
from repro.ml import (
    CheckpointConfig,
    ExponentialDecay,
    LinearSVM,
    LogisticRegression,
    Trainer,
    fixed_order_source,
    load_checkpoint,
    train_streaming,
)
from repro.shuffle import EpochShuffle
from repro.storage import SSD, write_block_file

SEED = 5
MODES = {"fused": {"fused": True}, "unfused": {"fused": False}, "minibatch": {"batch_size": 32}}


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
    plan, table = db.plan(spec.to_query()), db.catalog.get("t")
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
        seed=SEED, block_size=2048, buffer_fraction=0.2, **{"fused": False, **MODES[mode]},
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
        fused=spec.fused,
    ).run()
    np.testing.assert_array_equal(_weights(model), _weights(engine().train(spec.to_query()).model))


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

    def trainer(ckpath, plan=None):
        model = LinearSVM(dataset.n_features)
        return model, Trainer(
            model, dataset, EpochShuffle(dataset.n_tuples, seed=SEED), epochs=epochs,
            schedule=ExponentialDecay(0.05, 0.9), fault_plan=plan,
            checkpoint=CheckpointConfig(ckpath, every_tuples=100),
            **{"fused": False, **MODES[mode]},
        )

    base_model, base = trainer(tmp_path / "base.npz")
    base_history = base.run()
    ckpath = tmp_path / "run.npz"
    _crashed_model, crashed = trainer(ckpath, FaultPlan(crash_at_tuple=crash_at))
    with pytest.raises(InjectedCrash):
        crashed.run()
    state = load_checkpoint(ckpath)
    every = 96 if mode == "minibatch" else 100
    assert (state.epoch, state.cursor) == (1, 137 // every * every)
    assert state.tuples_seen == dataset.n_tuples + state.cursor

    resumed_model, resumed = trainer(ckpath)
    resumed_history = resumed.run(resume_from=ckpath)
    np.testing.assert_array_equal(_weights(resumed_model), _weights(base_model))
    assert resumed_history.train_losses == base_history.train_losses
    assert resumed_history.final.tuples_seen == epochs * dataset.n_tuples
    with pytest.raises(ValueError, match="checkpoint was taken with fused="):
        Trainer(
            LinearSVM(dataset.n_features), dataset, EpochShuffle(dataset.n_tuples, seed=SEED),
            epochs=epochs, batch_size=MODES[mode].get("batch_size", 1), fused=mode != "fused",
        ).run(resume_from=ckpath)


@pytest.mark.parametrize("per_tuple", [True, False], ids=["per-tuple", "minibatch"])
def test_streaming_crashed_at_a_batch_boundary_resumes_behind_a_prefetch_thread(
    tmp_path, per_tuple
):
    dataset = _dataset("dense")
    path = tmp_path / "stream.blocks"
    write_block_file(dataset, path, tuples_per_block=25)
    ckpath = tmp_path / "stream.ckpt.npz"

    def run(model, **kwargs):
        with CorgiPileDataset(path, buffer_blocks=2, seed=SEED) as view:

            def loader_factory(epoch):
                view.set_epoch(epoch)
                return DataLoader(view, batch_size=32)

            return train_streaming(
                model, loader_factory, epochs=2, per_tuple=per_tuple, fused=per_tuple,
                schedule=ExponentialDecay(0.05, 0.9), **kwargs,
            )

    clean = LinearSVM(dataset.n_features)
    clean_history = run(clean)
    with pytest.raises(InjectedCrash):
        # Five batches into the second epoch: the budget runs out exactly
        # at a batch boundary, one batch after a cadence save.
        run(
            LinearSVM(dataset.n_features),
            fault_plan=FaultPlan(crash_at_tuple=dataset.n_tuples + 5 * 32),
            checkpoint=CheckpointConfig(ckpath, every_tuples=64),
        )
    state = load_checkpoint(ckpath)
    assert (state.epoch, state.cursor, state.meta["cursor_unit"]) == (1, 4, "batches")
    resumed = LinearSVM(dataset.n_features)
    resumed_history = run(resumed, resume_from=ckpath, prefetch_depth=2)
    np.testing.assert_array_equal(_weights(resumed), _weights(clean))
    assert resumed_history.final.tuples_seen == clean_history.final.tuples_seen
    with pytest.raises(ValueError, match="checkpoint was taken with per_tuple="):
        with CorgiPileDataset(path, buffer_blocks=2, seed=SEED) as view:
            train_streaming(
                LinearSVM(dataset.n_features), lambda epoch: DataLoader(view, batch_size=32),
                epochs=2, per_tuple=not per_tuple, fused=per_tuple, resume_from=ckpath,
            )


def test_sgd_operator_checkpoint_keeps_its_meta_keys_and_row_cursor(tmp_path):
    """What a daemon of the parent commit wrote must stay resumable: the
    ``sgd-operator`` checkpoint's ``meta`` key set, its cursor in rows, and
    saves at unit boundaries only."""
    from repro.ml.trainer import TrainInterrupted

    dataset = _dataset("dense")
    db = MiniDB(page_bytes=1024, pool_pages=8)
    db.create_table("t", dataset)
    spec = TrainSpec(
        table="t", model="lr", epochs=2, lr=0.05, seed=SEED, fused=True, block_size=2048
    )
    checkpoint = CheckpointConfig(tmp_path / "job.ckpt.npz", every_tuples=300)
    probes = []
    with pytest.raises(TrainInterrupted, match="stopped in epoch 0 after 512 tuples"):
        db.train(
            spec.to_query(), checkpoint=checkpoint,
            should_stop=lambda: probes.append(None) or len(probes) >= 2,
        )
    state = load_checkpoint(checkpoint.path)
    assert (state.epoch, state.cursor, state.tuples_seen) == (0, 512, 512)  # 2 units of 256
    assert set(state.meta) == {
        "mode", "model", "batch_size", "fused", "fuse_chunk", "strategy", "seed", "lr", "decay",
        "block_size", "buffer_tuples", "n_tuples", "epoch_wall_times", "measured_wall_times",
    }
    assert state.meta["mode"] == "sgd-operator"


# ----------------------------------------------------------------------
# The gate: one loop, one fill
# ----------------------------------------------------------------------


def test_the_update_unit_loop_and_the_fill_exist_once():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    sources = {p.relative_to(src).as_posix(): p.read_text() for p in src.rglob("*.py")}

    def files_calling(pattern: str) -> set[str]:
        return {name for name, code in sources.items() if re.search(pattern, code)}

    assert files_calling(r"\brestore_run\(") == {"ml/trainer.py", "parallel/engine.py"}
    assert files_calling(r"\bsave_checkpoint\(") - {"ml/persistence.py"} == {
        "ml/trainer.py", "parallel/engine.py",
    }
    assert all(name.startswith("ml/models/") for name in files_calling(r"\bstep_example\("))
    deleted = re.compile(
        r"step_chunks|iter_fills|ChunkFill|train_streaming_chunks|glm_epoch_\w+_chunks|"
        r"_concat_features|_stack_sparse"
    )
    assert files_calling(deleted.pattern) == set()
    assert files_calling(r"import.*\bShuffleBuffer\b") <= {"core/__init__.py"}
    # Operators move batches: the per-tuple next() adapter is for tests only.
    assert files_calling(r"\w\.next\(\)") <= {"db/operators.py"}
    # A spawned worker's import path must not grow: parallel/ stays off db/.
    assert not any(
        re.search(r"^\s*(from|import)\s+(\.\.db|repro\.db)\b", code, re.M)
        for name, code in sources.items() if name.startswith("parallel/")
    )


def test_one_stopwatch_and_one_block_file_fill():
    """benchmarks/e2e is the only wall clock: the legacy bench engines, their
    modeled walls and CLI command are gone, and so is the second fill."""
    import repro.bench
    from repro.cli import build_parser

    src = Path(__file__).resolve().parents[1] / "src"
    deleted = re.compile(
        r"kernelbench|parallelbench|mopbench|modeled_walls|ShardFetcher|cold_cache_per_query"
    )
    assert [p.as_posix() for p in src.rglob("*.py") if deleted.search(p.read_text())] == []
    assert set(repro.bench.__all__) == {
        "format_table", "format_curve", "save_records",
        "ConvergenceSweep", "run_convergence_sweep", "history_row", "time_best",
    }
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert "kernel-bench" not in commands.choices and len(commands.choices) == 14
