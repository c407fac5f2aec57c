"""The conformance matrix: one statement, one computation, every entry point.

The same resolved :class:`~repro.db.spec.TrainSpec` is trained through

* the Python API      ``MiniDB.train(spec.to_query())``
* SQL                 ``MiniDB.execute("SELECT ... TRAIN BY ...")``
* the CLI             ``repro train ... --save-model``
* the serve daemon    an in-process ``ReproServer`` job

and every route must produce **bit-identical** weights — the system form of
the repo's signature guarantee.  "Resolved" is what a served job journals:
``fused = true`` (the daemon's one execution policy, and the CLI's), an
explicit strategy, the rows a WHERE selects.

One caveat, by design: a job trains a *compacted snapshot* of the live rows.
On a table whose heap has dead slots from DML the inline run packs pages
around the holes, so its visit order — not its row set — can differ from the
job's; :func:`test_job_trains_the_compacted_snapshot` pins which side is
which.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.data import make_binary_dense, read_csv, write_csv
from repro.db import MiniDB, parse_query
from repro.db.plan import RID_STRATEGIES, STRATEGIES, WHERE_STRATEGIES
from repro.db.query import parse_predicate
from repro.db.errors import EngineError
from repro.db.spec import GridSpec, TrainSpec
from repro.ml import CheckpointConfig, load_checkpoint, load_model
from repro.ml.trainer import TrainInterrupted
from repro.serve import ReproClient, ReproServer, ServerError
from repro.serve.jobs import JobManager

SEED = 3
BLOCK_TUPLES = 40
WHERE = "f0 >= 0.0"


def weights(model) -> np.ndarray:
    return np.asarray(model.parameter_vector())


def make_db(dataset, layout="row", index=None) -> MiniDB:
    """A fresh engine holding ``dataset`` as table ``t`` — the shape the CLI
    and the daemon's sessions build (4 KB pages)."""
    db = MiniDB(page_bytes=4096)
    db.create_table("t", dataset, layout=layout)
    if index:
        db.execute(f"CREATE INDEX ix ON t ({index})")
    return db


def block_size(dataset) -> int:
    """What ``repro train --block-tuples`` turns into ``block_size``."""
    return max(4096, int(BLOCK_TUPLES * make_db(dataset).catalog.get("t").tuple_bytes))


def to_sql(spec: TrainSpec) -> str:
    """The statement text of ``spec`` (checked to parse back to it)."""
    where = f" WHERE {spec.where.render()}" if spec.where is not None else ""
    knobs = {
        "learning_rate": spec.lr, "decay": spec.decay, "max_epoch_num": spec.epochs,
        "batch_size": spec.batch_size, "block_size": spec.block_size,
        "buffer_fraction": spec.buffer_fraction, "strategy": spec.strategy,
        "seed": spec.seed, "fused": "true" if spec.fused else "false",
        "workers": spec.workers,
    }
    text = ", ".join(f"{k} = {v}" for k, v in knobs.items())
    if spec.grid is not None:
        text += f", grid = ({spec.grid.render()})"
    sql = f"SELECT * FROM {spec.table}{where} TRAIN BY {spec.model} WITH {text}"
    assert parse_query(sql).spec() == spec
    return sql


def cli_args(spec: TrainSpec, csv_path, model_path, index=None) -> list[str]:
    args = [
        "train", "--data", str(csv_path), "--format", "csv", "--model", spec.model,
        "--strategy", spec.strategy, "--epochs", str(spec.epochs), "--lr", repr(spec.lr),
        "--decay", repr(spec.decay), "--batch-size", str(spec.batch_size),
        "--buffer-fraction", repr(spec.buffer_fraction), "--block-tuples", str(BLOCK_TUPLES),
        "--seed", str(spec.seed), "--workers", str(spec.workers),
        "--save-model", str(model_path),
    ]
    if spec.where is not None:
        args += ["--where", spec.where.render()]
    if index:
        args += ["--index", index]
    if spec.grid is not None:
        args += ["--grid", spec.grid.render()]
    return args


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """``(csv_path, train_set)``: the file the CLI reads and the table rows
    it builds from it (its 90 % split at ``--seed``)."""
    path = tmp_path_factory.mktemp("conformance") / "data.csv"
    write_csv(make_binary_dense(700, 6, seed=11), path)
    train_set, _test = read_csv(path, task="binary").split(0.9, seed=SEED)
    return path, train_set


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = ReproServer(
        tmp_path_factory.mktemp("serve_state"), job_workers=1, checkpoint_every_tuples=256
    ).start()
    yield srv
    srv.stop()


def serve_job(server, sql, dataset, layout="row", index=None):
    """Run ``sql`` as a job of a fresh session holding ``dataset``; returns
    ``(model, final status)``."""
    with ReproClient(server.host, server.port) as client:
        # Sessions only load bundled datasets over the wire; install the
        # table in the session's engine the way ``load`` does.
        db = server._sessions[client.session_id].db
        db.create_table("t", dataset, layout=layout)
        if index:
            client.sql(f"CREATE INDEX ix ON t ({index})")
        job_id = client.submit(sql)
        final = client.wait(job_id, timeout=120, poll_s=0.01)
        assert final["state"] == "done", final.get("error")
        return client.fetch_model(job_id), final


def spec_for(dataset, **fields) -> TrainSpec:
    base = dict(
        table="t", model="lr", epochs=2, lr=0.05, decay=0.9, buffer_fraction=0.2,
        block_size=block_size(dataset), seed=SEED, fused=True,
    )
    return TrainSpec(**{**base, **fields})


# ----------------------------------------------------------------------
# The heap-executor matrix
# ----------------------------------------------------------------------

MATRIX = [
    pytest.param(strategy, layout, where, index, batch_size,
                 id=f"{strategy}-{layout}-{'where' if where else 'all'}"
                    f"{'-ix' if index else ''}-bs{batch_size}")
    for strategy in STRATEGIES
    for layout in ("row", "columnar")
    for where, index in ((None, None), (WHERE, None), (WHERE, "f0"))
    for batch_size in (1, 32)
    # What the table supports: WHERE runs on four strategies, and anything
    # that addresses tuples by RID needs the row layout.
    if (where is None or strategy in WHERE_STRATEGIES)
    and (layout == "row" or (where is None and strategy not in RID_STRATEGIES))
]


@pytest.mark.parametrize("strategy, layout, where, index, batch_size", MATRIX)
def test_every_entry_point_trains_the_same_model(
    data, server, tmp_path, strategy, layout, where, index, batch_size
):
    csv_path, train_set = data
    spec = spec_for(
        train_set, strategy=strategy, batch_size=batch_size,
        where=parse_predicate(where) if where else None,
    )
    sql = to_sql(spec)
    reference = weights(make_db(train_set, layout, index).train(spec.to_query()).model)
    assert np.any(reference != 0.0)

    via_sql = make_db(train_set, layout, index).execute(sql).model
    np.testing.assert_array_equal(weights(via_sql), reference)

    via_serve, final = serve_job(server, sql, train_set, layout, index)
    np.testing.assert_array_equal(weights(via_serve), reference)
    assert final["strategy"] == final["spec"]["strategy"] == strategy

    if layout == "row":  # the CLI builds row tables only
        model_path = tmp_path / "cli.npz"
        assert main(cli_args(spec, csv_path, model_path, index)) == 0
        np.testing.assert_array_equal(weights(load_model(model_path)), reference)


def test_what_the_engine_rejects_admission_rejects_with_the_same_message(data, server):
    _csv, train_set = data
    for layout, fields in (
        ("columnar", {"where": parse_predicate(WHERE)}),  # no RIDs to filter by
        ("columnar", {"strategy": "epoch_shuffle"}),
        ("row", {"strategy": "mrs", "where": parse_predicate(WHERE)}),
        ("row", {"strategy": "no_shuffle", "workers": 2}),
        ("row", {"strategy": "zigzag"}),
    ):
        spec = spec_for(train_set, **fields)
        with pytest.raises(EngineError) as inline:
            make_db(train_set, layout).train(spec.to_query())
        with pytest.raises(ServerError) as served:
            serve_job(server, to_sql(spec), train_set, layout)
        assert served.value.code == "engine_error"
        assert str(inline.value) in str(served.value)


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    buffer_fraction=st.floats(0.05, 1.0),
    strategy=st.sampled_from(STRATEGIES),
    batch_size=st.sampled_from([1, 32]),
)
def test_drawn_specs_agree_between_api_sql_and_a_job(
    data, tmp_path_factory, seed, buffer_fraction, strategy, batch_size
):
    """Cheap cases, drawn: the job is executed synchronously on the test
    thread (``submit`` + ``_execute``), so there is no polling to wait for."""
    _csv, dataset = data
    spec = spec_for(
        dataset, strategy=strategy, batch_size=batch_size, seed=seed,
        buffer_fraction=buffer_fraction,
    )
    sql = to_sql(spec)
    reference = weights(make_db(dataset).train(spec.to_query()).model)
    np.testing.assert_array_equal(weights(make_db(dataset).execute(sql).model), reference)
    manager = JobManager(tmp_path_factory.mktemp("jobs"), checkpoint_every_tuples=256)
    job = manager.submit("s1", sql, parse_query(sql), make_db(dataset))
    manager._execute(job)
    assert job.state == "done", job.spec.get("error")
    np.testing.assert_array_equal(weights(load_model(job.model_path)), reference)


# ----------------------------------------------------------------------
# The block-file family (real worker processes)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"workers": 2, "batch_size": 32}, id="workers2"),
        pytest.param({"grid": {"lr": [0.1, 0.01]}}, id="grid"),
    ],
)
def test_blockfile_runs_agree_inline_served_and_cli(data, server, tmp_path, fields):
    """Each grid config ≡ its solo run is PR 10's proof (tests/test_hopper.py),
    not repeated here; this is the cross-entry-point half."""
    csv_path, train_set = data
    if "grid" in fields:
        fields = {"grid": GridSpec.from_axes(fields["grid"])}
    spec = spec_for(train_set, **fields)
    sql = to_sql(spec)
    inline = make_db(train_set).execute(sql)
    reference = weights(inline.model)

    via_serve, final = serve_job(server, sql, train_set)
    np.testing.assert_array_equal(weights(via_serve), reference)
    if spec.grid is not None:
        served_board = final["result"]["grid"]["leaderboard"]
        assert [r["final_train_loss"] for r in served_board] == [
            r["final_train_loss"] for r in inline.leaderboard
        ]

    model_path = tmp_path / "cli.npz"
    assert main(cli_args(spec, csv_path, model_path)) == 0
    np.testing.assert_array_equal(weights(load_model(model_path)), reference)


# ----------------------------------------------------------------------
# Pinned regressions: the three silent divergences of the old job stack
# ----------------------------------------------------------------------


def test_served_batch_size_is_mini_batch_sgd(data, server):
    """Was: ``batch_size = 32`` ran per-tuple SGD with a 32-tuple loader
    batch — the same weights as ``batch_size = 1``."""
    _csv, train_set = data
    models = {
        bs: serve_job(server, to_sql(spec_for(train_set, batch_size=bs)), train_set)[0]
        for bs in (1, 32)
    }
    assert np.any(weights(models[1]) != weights(models[32]))
    inline = make_db(train_set).train(spec_for(train_set, batch_size=32).to_query())
    np.testing.assert_array_equal(weights(models[32]), weights(inline.model))


def test_served_auto_runs_and_journals_the_advisors_pick(data, server):
    """Was: the journal said ``corgipile`` whatever the advisor picked, and
    the daemon ran CorgiPile whatever the journal said."""
    _csv, train_set = data
    sql = to_sql(spec_for(train_set, strategy="auto"))
    model, final = serve_job(server, sql, train_set)
    picked = final["advisor"]["strategy"]
    assert final["strategy"] == final["spec"]["strategy"] == picked
    inline = make_db(train_set).train(spec_for(train_set, strategy=picked).to_query())
    np.testing.assert_array_equal(weights(model), weights(inline.model))


def test_served_explain_is_the_inline_explain(data, server):
    """Was: a served EXPLAIN rendered a job-only plan (``for_job``)."""
    _csv, train_set = data
    for fields in ({}, {"workers": 2}, {"strategy": "auto"}):
        sql = "EXPLAIN " + to_sql(spec_for(train_set, **fields))
        with ReproClient(server.host, server.port) as client:
            db = server._sessions[client.session_id].db
            db.create_table("t", train_set)
            served = client.sql(sql)["plan"]
        inline = MiniDB(device=db.device, page_bytes=4096)
        inline.create_table("t", train_set)
        assert served == inline.execute(sql)


def test_bench_job_statement_equals_inline_fused_train(tmp_path):
    """``benchmarks/e2e`` ``serve_mixed``: its job's model is the inline
    ``TRAIN ..., fused = true`` of the same statement on the same rows (the
    digest recorded in ``baseline.json`` predates this and is historical)."""
    from repro.data import registry
    from repro.data.orderings import clustered_by_label

    sql = (
        "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num = 3, "
        "learning_rate = 0.01, block_size = 64KB, buffer_fraction = 0.1, seed = 0"
    )
    server = ReproServer(
        tmp_path, job_workers=1, device="hdd-scaled", checkpoint_every_tuples=2048
    ).start()
    try:
        with ReproClient(server.host, server.port) as client:
            client.load("susy", table="susy", order="clustered", seed=0)
            job_id = client.submit(sql)
            assert client.wait(job_id, timeout=120, poll_s=0.01)["state"] == "done"
            served = client.fetch_model(job_id)
    finally:
        server.stop()
    db = MiniDB(page_bytes=4096)
    db.create_table("susy", clustered_by_label(registry.load("susy", seed=0), seed=0))
    inline = db.execute(sql + ", fused = true").model
    np.testing.assert_array_equal(weights(served), weights(inline))


def test_job_trains_the_compacted_snapshot(data, server):
    """The caveat in the module docstring, pinned: after DML the job equals
    an inline TRAIN over a *fresh* table of the live rows."""
    _csv, train_set = data
    sql = to_sql(spec_for(train_set))
    with ReproClient(server.host, server.port) as client:
        db = server._sessions[client.session_id].db
        db.create_table("t", train_set)
        assert client.sql("DELETE FROM t WHERE f1 >= 1.0")["result"]["deleted"] > 0
        live_rows = db.catalog.get("t").dataset
        job_id = client.submit(sql)
        assert client.wait(job_id, timeout=120, poll_s=0.01)["state"] == "done"
        served = client.fetch_model(job_id)
    compacted = make_db(live_rows).execute(sql).model
    np.testing.assert_array_equal(weights(served), weights(compacted))


# ----------------------------------------------------------------------
# The seam itself: kill SGDOperator mid-epoch, resume bit-exactly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["corgipile", "sliding_window", "mrs", "block_reshuffle"])
@pytest.mark.parametrize(
    "mode", [{"fused": True}, {"fused": False}, {"batch_size": 32}], ids=["fused", "unfused", "minibatch"]
)
def test_sgd_operator_resumes_bit_exactly_from_a_mid_epoch_checkpoint(
    data, tmp_path, strategy, mode
):
    """A run interrupted in its second epoch, between two checkpoints, then
    re-run over the checkpoint on a *fresh* engine (a restarted process) —
    the stateful-RNG operators (sliding window, MRS) are re-positioned by
    ``seek`` + discard, not by serialising their buffers."""
    _csv, dataset = data
    spec = spec_for(dataset, strategy=strategy, epochs=3, **mode)
    reference = make_db(dataset).train(spec.to_query())

    checkpoint = CheckpointConfig(tmp_path / "run.ckpt.npz", every_tuples=200)
    unit = 256 if spec.batch_size == 1 else spec.batch_size
    probes_to_allow = (dataset.n_tuples + dataset.n_tuples // 2) // unit
    probes = []

    def should_stop() -> bool:
        probes.append(None)
        return len(probes) > probes_to_allow

    progress = []
    with pytest.raises(TrainInterrupted):
        make_db(dataset).train(
            spec.to_query(), checkpoint=checkpoint, should_stop=should_stop,
            on_progress=progress.append,
        )
    assert [p["epochs_done"] for p in progress] == [1]
    state = load_checkpoint(checkpoint.path)
    assert state.epoch == 1 and 0 < state.cursor < dataset.n_tuples  # mid-epoch

    resumed = make_db(dataset).train(spec.to_query(), checkpoint=checkpoint)
    np.testing.assert_array_equal(weights(resumed.model), weights(reference.model))
    assert [r.train_loss for r in resumed.history.records] == [
        r.train_loss for r in reference.history.records
    ]
    assert len(resumed.timeline.points) == spec.epochs

    # "Matches" is checked: the same file under another plan is refused.
    other = spec_for(dataset, strategy=strategy, epochs=3, seed=SEED + 1, **mode)
    (tmp_path / "other.ckpt.npz").write_bytes(checkpoint.path.read_bytes())
    with pytest.raises(ValueError, match="seed"):
        make_db(dataset).train(
            other.to_query(), checkpoint=CheckpointConfig(tmp_path / "other.ckpt.npz")
        )


# ----------------------------------------------------------------------
# The gate: serve/ stays a client of the engine
# ----------------------------------------------------------------------


def test_serve_imports_no_training_stack_and_for_job_is_gone():
    import re
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    banned = re.compile(
        r"core\.dataset|core\.dataloader|ml\.streaming|parallel\.hopper|"
        r"\bParallelTrainer\b|\bHopperEngine\b|\btrain_streaming\b|"
        r"\bCorgiPileDataset\b|\bDataLoader\b"
    )
    for path in (src / "serve").glob("*.py"):
        code = "\n".join(
            line for line in path.read_text().splitlines()
            if line.lstrip().startswith(("import ", "from "))
        )
        assert not banned.search(code), f"{path.name} imports a training stack"
    hits = [str(p) for p in src.rglob("*.py") if "for_job" in p.read_text()]
    assert hits == []
