"""The six workloads: seeded inputs, closed statement loops, oracles.

Every workload drives a real entry point — ``MiniDB.execute(sql)``, or
``ReproClient`` frames to an in-process ``ReproServer`` over TCP — one
statement at a time (closed loop: the next statement is issued only after
the previous one returned).  ``--seed`` generates the data, the op stream
and the SQL ``seed =`` knob; the program sees only the generated inputs.

Each workload is an object with::

    build(seed, work_dir)  ->  None   data + tables + indexes + daemon
    warmup()               ->  None   one untimed pass over every statement
    run(deadline, min_headline, max_headline) -> list[Sample]
    finish()               ->  list[str]   end-of-run audit failures
    close()                ->  None
    facts()                ->  dict   static facts the probes need

A :class:`Sample` is one statement: its kind (``train`` / ``job`` /
``read`` / ``write``), a name separating statement shapes inside a kind
(medians are taken per name, then averaged, so a bimodal mix cannot flip
the median between modes), its wall, whether its checks passed, and the
tuples it applied to models.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data import (
    clustered_by_label,
    make_binary_dense,
    make_binary_sparse,
    ordered_by_feature,
)
from repro.db import MiniDB
from repro.storage.iomodel import HDD_SCALED

__all__ = ["Sample", "WORKLOADS", "model_digest"]

#: The knobs every TRAIN shares (ISSUE "load shape").
COMMON_WITH = "block_size = 64KB, buffer_fraction = 0.1, fused = true"
PAGE_BYTES = 8192
#: Class separation of the dense tables.  higgs' own 0.45 leaves a 3-epoch
#: model so close to chance that one seed in 24 ended at 0.51 with a correct
#: shuffle; at 0.85 the worst of 20 seeds was 0.72 and a broken shuffle on
#: clustered data still collapses to 0.5, so the score floor means something.
SEPARATION = 0.85


@dataclass
class Sample:
    kind: str
    name: str
    start: float  # perf_counter at issue
    raw_s: float  # measured wall
    ok: bool
    tuples: int = 0
    info: dict = field(default_factory=dict)
    wall_s: float = 0.0  # calibrated wall, set by the driver (see hostclock)


def model_digest(*models) -> str:
    """A short hash of the exact parameter bytes (bit-identity oracle)."""
    h = hashlib.sha256()
    for model in models:
        h.update(np.ascontiguousarray(model.parameter_vector()).tobytes())
    return h.hexdigest()[:16]


def _failed(kind: str, name: str, start: float, exc: Exception) -> Sample:
    return Sample(
        kind, name, start, time.perf_counter() - start, False,
        info={"error": f"{type(exc).__name__}: {exc}"},
    )


class _SqlWorkload:
    """Shared closed loop for the single-connection in-process workloads."""

    headline = "train"
    #: Lowest acceptable last-epoch train score; a shuffle broken on
    #: clustered data collapses to ~0.5.
    score_floor = 0.0
    #: Statement shape whose loss / simulated clock stands for the run.
    reference_name = ""
    #: Whether ``timeline.total_time_s`` is the simulated device+compute
    #: clock (single-process plans) or a measured wall (spawned workers).
    simulated_clock = True

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.db: MiniDB | None = None
        self.digests: dict[str, str] = {}
        self.reference: dict = {}

    #: The table the statements run on and the model they train (probes).
    table = ""
    model = None

    def cycle(self) -> list:
        """The statements of one round: ``[(kind, name, run, verify), ...]``.
        ``run()`` issues one statement and is what gets timed;
        ``verify(its result)`` returns ``(ok, tuples, info)`` off the clock.
        ``build`` leaves a fixed round in ``self._cycle``."""
        return self._cycle

    def facts(self) -> dict:
        return {
            "tables": [self.db.catalog.get(self.table)],
            "model": self.model,
            "dataset": self.dataset,
        }

    # -- shared ---------------------------------------------------------
    def warmup(self) -> None:
        for sample in self._run_cycle(None):
            if not sample.ok:
                raise RuntimeError(f"warm-up statement failed: {sample.info}")

    def _run_cycle(self, clock):
        for kind, name, run, verify in self.cycle():
            if clock is not None:
                clock.tick()
            t0 = time.perf_counter()
            try:
                out = run()
                wall = time.perf_counter() - t0
                ok, tuples, info = verify(out)
            except Exception as exc:  # noqa: BLE001 - a raising statement is a failed op
                yield _failed(kind, name, t0, exc)
                continue
            yield Sample(kind, name, t0, wall, ok, tuples, info)

    def run(self, deadline: float, clock, min_headline: int = 1, max_headline: int | None = None):
        """Statements until ``deadline`` (``perf_counter`` time); always at
        least one full round, so every statement shape has a sample.
        ``clock`` takes a host-speed reading between statements."""
        samples: list[Sample] = []
        headline = 0
        while True:
            for sample in self._run_cycle(clock):
                samples.append(sample)
                headline += sample.kind == self.headline
            if max_headline is not None and headline >= max_headline:
                return samples
            if headline >= min_headline and time.perf_counter() >= deadline:
                return samples

    def finish(self) -> list[str]:
        return []

    def close(self) -> None:
        self.db = None

    # -- TRAIN + its PREDICT, with the oracle ---------------------------
    def _train(self, name: str, sql: str, tuples_of, predict_exact: bool = True, check=None) -> list:
        """The two cycle entries of one TRAIN statement shape: the TRAIN and
        the PREDICT BY the model it just registered.

        The PREDICT is both the workload's read statement and an independent
        check through a second entry point.  ``check(result)`` adds a
        workload-specific condition.
        """
        state: dict = {}

        def verify_train(result):
            final = result.history.final
            leaderboard = getattr(result, "leaderboard", None)
            digest = (
                model_digest(
                    *[self.db.get_model(r["model_id"]) for r in sorted(leaderboard, key=lambda r: r["config"])]
                )
                if leaderboard
                else model_digest(result.model)
            )
            first = self.digests.setdefault(name, digest)
            ok = (
                math.isfinite(final.train_loss)
                and final.train_score >= self.score_floor
                and digest == first
                and (check is None or check(result))
            )
            state["result"] = result
            info = {
                "digest": digest,
                "final_train_loss": final.train_loss,
                "final_train_score": final.train_score,
                "sim_train_s": result.timeline.total_time_s,
            }
            where = result.query.extra.get("where")
            if where is not None:
                info["rows"] = where["n_matching"]
                info["pages_fetched"] = where.get("physical", {}).get("pages_fetched", 0)
            self.reference.setdefault(name, info)
            return ok, tuples_of(result), info

        def run_predict():
            return self.db.execute(f"SELECT * FROM {self.table} PREDICT BY {state['result'].model_id}")

        def verify_predict(predictions):
            labels = self.db.catalog.labels(self.table)
            accuracy = float(np.mean(predictions == labels))
            ok = predictions.shape == labels.shape and bool(np.isin(predictions, (-1.0, 1.0)).all())
            if predict_exact:
                ok = ok and abs(accuracy - state["result"].history.final.train_score) < 1e-12
            return ok, 0, {"accuracy": accuracy}

        return [
            ("train", name, lambda: self.db.execute(sql), verify_train),
            ("read", "predict", run_predict, verify_predict),
        ]


# ----------------------------------------------------------------------
# 1. train_dense_row
# ----------------------------------------------------------------------


class TrainDenseRow(_SqlWorkload):
    """higgs-shaped dense row heap, pool holds the table: pull + collate."""

    name = "train_dense_row"
    table, model = "higgs", "svm"
    reference_name = "svm"
    score_floor = 0.62
    traced_headline = 3

    def build(self, seed: int, work_dir: Path) -> None:
        n = 2000 if self.smoke else 36000
        self.dataset = clustered_by_label(
            make_binary_dense(n, 28, separation=SEPARATION, seed=seed), seed=seed
        )
        self.db = MiniDB(device=HDD_SCALED, page_bytes=PAGE_BYTES)
        self.db.create_table("higgs", self.dataset)
        sql = (
            "SELECT * FROM higgs TRAIN BY svm WITH max_epoch_num = 3, "
            f"learning_rate = 0.01, {COMMON_WITH}, seed = {seed}"
        )
        self._cycle = self._train("svm", sql, lambda r: self.dataset.n_tuples * 3)


# ----------------------------------------------------------------------
# 2. train_sparse_columnar
# ----------------------------------------------------------------------


class TrainSparseColumnar(_SqlWorkload):
    """criteo-shaped sparse columnar heap ≫ a 64-page pool: decode + kernel."""

    name = "train_sparse_columnar"
    table, model = "criteo", "lr"
    reference_name = "lr"
    score_floor = 0.75
    traced_headline = 3

    def build(self, seed: int, work_dir: Path) -> None:
        n = 1500 if self.smoke else 20000
        self.dataset = clustered_by_label(
            make_binary_sparse(n, 5000, nnz_per_row=30, separation=0.25, seed=seed), seed=seed
        )
        self.db = MiniDB(device=HDD_SCALED, page_bytes=PAGE_BYTES, pool_pages=64)
        self.db.create_table("criteo", self.dataset, layout="columnar")
        sql = (
            "SELECT * FROM criteo TRAIN BY lr WITH max_epoch_num = 3, "
            f"learning_rate = 0.1, {COMMON_WITH}, seed = {seed}"
        )
        self._cycle = self._train("lr", sql, lambda r: self.dataset.n_tuples * 3)


# ----------------------------------------------------------------------
# 3. train_where_indexed
# ----------------------------------------------------------------------


class TrainWhereIndexed(_SqlWorkload):
    """Feature-ordered dense table + B+tree: cost must follow the predicate."""

    name = "train_where_indexed"
    table, model = "higgs", "svm"
    reference_name = "sel30"
    score_floor = 0.65
    traced_headline = 4
    #: Selectivities of the four thresholds; fixed so cost does not depend
    #: on the seed — the seed picks the data (hence the cut values) and the
    #: order in which the four are cycled.
    selectivities = (0.05, 0.10, 0.20, 0.30)

    def build(self, seed: int, work_dir: Path) -> None:
        n = 3000 if self.smoke else 40000
        self.dataset = ordered_by_feature(
            make_binary_dense(n, 28, separation=SEPARATION, seed=seed), 0, seed=seed
        )
        self.db = MiniDB(device=HDD_SCALED, page_bytes=PAGE_BYTES)
        self.db.create_table("higgs", self.dataset)
        t0 = time.perf_counter()
        self.db.execute("CREATE INDEX ix0 ON higgs (f0)")
        self.index_build_s = time.perf_counter() - t0
        column = np.sort(np.asarray(self.dataset.X[:, 0]))
        order = np.random.default_rng(seed).permutation(len(self.selectivities))
        self._cycle = []
        for i in order:
            sel = self.selectivities[i]
            cut = float(column[int(n * (1.0 - sel))])
            name = f"sel{int(sel * 100):02d}"
            sql = (
                f"SELECT * FROM higgs WHERE f0 >= {cut!r} TRAIN BY svm WITH "
                f"max_epoch_num = 3, learning_rate = 0.01, {COMMON_WITH}, seed = {seed}"
            )
            self._cycle += self._train(
                name,
                sql,
                lambda r: r.query.extra["where"]["n_matching"] * 3,
                predict_exact=False,
                # The planner must take the index: that is what this
                # workload exists to time.
                check=lambda r: r.query.extra["where"]["fetch"] == "index"
                and r.query.extra["where"]["index"] == "ix0",
            )


# ----------------------------------------------------------------------
# 4. dml_mixed
# ----------------------------------------------------------------------


class DmlMixed(_SqlWorkload):
    """INSERT → UPDATE → SELECT → DELETE rounds against a shadow model."""

    name = "dml_mixed"
    table = "t"
    headline = "write"
    simulated_clock = False
    traced_headline = 150  # 50 rounds x 3 writes

    def build(self, seed: int, work_dir: Path) -> None:
        n = 600 if self.smoke else 4000
        self.dataset = make_binary_dense(n, 18, separation=SEPARATION, seed=seed)
        if float(np.max(self.dataset.X[:, 0])) >= 500.0:
            raise RuntimeError("base f0 values overlap the inserted key range")
        self.db = MiniDB(device=HDD_SCALED, page_bytes=PAGE_BYTES)
        # .idx persistence (durable_write per statement) is part of the cost.
        self.db.catalog.data_dir = Path(work_dir) / "dml_idx"
        self.db.create_table("t", self.dataset)
        t0 = time.perf_counter()
        self.db.execute("CREATE INDEX ix0 ON t (f0)")
        self.index_build_s = time.perf_counter() - t0
        self.base_rows = n
        self.shadow: dict[float, tuple[float, list[float]]] = {}
        self.rng = np.random.default_rng(seed)
        self.round = 0

    def _expect(self, lo: float) -> list:
        """What ``SELECT ... WHERE f0 >= lo`` must return, from the shadow."""
        return sorted((k, row) for k, row in self.shadow.items() if k >= lo)

    def cycle(self):
        self.round += 1
        key = 1000.0 + self.round
        values = [float(v) for v in self.rng.standard_normal(18)]
        values[0] = key
        label = 1.0 if self.rng.random() < 0.5 else -1.0
        new_f1 = float(self.rng.standard_normal())
        literal = ", ".join(repr(v) for v in [label] + values)

        def inserted(out):
            self.shadow[key] = (label, list(values))
            return out["inserted"] == 1 and out["n_tuples"] == self.base_rows + len(self.shadow), 0, {"rows": 1}

        def updated(out):
            self.shadow[key][1][1] = new_f1
            return out["updated"] == 1 and out["via_index"] == "ix0", 0, {"rows": 1}

        def selected(out):
            want = self._expect(key - 0.5)[:5]
            got = [(r["features"][0], r["label"], r["features"][1]) for r in out["rows"]]
            ok = out["via_index"] == "ix0" and got == [(k, row[0], row[1][1]) for k, row in want]
            return ok, 0, {"rows": out["returned"]}

        def deleted(out):
            del self.shadow[key]
            return out["deleted"] == 1 and out["n_tuples"] == self.base_rows + len(self.shadow), 0, {"rows": 1}

        execute = self.db.execute
        return [
            ("write", "insert", lambda: execute(f"INSERT INTO t VALUES ({literal})"), inserted),
            ("write", "update", lambda: execute(f"UPDATE t SET f1 = {new_f1!r} WHERE f0 = {key!r}"), updated),
            ("read", "select_where",
             lambda: execute(f"SELECT * FROM t WHERE f0 >= {key - 0.5!r} LIMIT 5"), selected),
            ("write", "delete", lambda: execute(f"DELETE FROM t WHERE f0 = {key!r}"), deleted),
        ]

    def finish(self) -> list[str]:
        table = self.db.catalog.get("t")
        failures = []
        if table.n_tuples != self.base_rows + len(self.shadow):
            failures.append(f"row count {table.n_tuples} != shadow {self.base_rows + len(self.shadow)}")
        try:
            table.verify_indexes()
        except AssertionError as exc:
            failures.append(f"verify_indexes: {exc}")
        return failures


# ----------------------------------------------------------------------
# 5. train_parallel_grid
# ----------------------------------------------------------------------


class TrainParallelGrid(_SqlWorkload):
    """Spawned worker processes: a 2-worker sync TRAIN and a 2-config grid.

    Two workers each, because the host has two cores: the issue's 4-config
    grid runs four workers beside the driver, and its per-32-tuple barrier
    makes three processes wait for the slowest of them 940 times a
    statement — that slowed 1.6x when the host slowed 1.3x (the grid 1.4x).
    A sync step of 256 keeps the barrier IPC in the statement (~13 % of its
    wall over ``aggregation = 'epoch'``) and both statements halve, so a run
    holds twice the samples."""

    name = "train_parallel_grid"
    table, model = "higgs", "svm"
    reference_name = "workers2"
    simulated_clock = False
    score_floor = 0.62
    traced_headline = 2

    def build(self, seed: int, work_dir: Path) -> None:
        n = 2400 if self.smoke else 20000
        self.dataset = clustered_by_label(
            make_binary_dense(n, 28, separation=SEPARATION, seed=seed), seed=seed
        )
        self.db = MiniDB(device=HDD_SCALED, page_bytes=PAGE_BYTES)
        self.db.create_table("higgs", self.dataset)
        workers_sql = (
            "SELECT * FROM higgs TRAIN BY svm WITH workers = 2, aggregation = 'sync', "
            "batch_size = 256, max_epoch_num = 3, learning_rate = 0.01, "
            f"block_size = 64KB, buffer_fraction = 0.1, seed = {seed}"
        )
        grid_sql = (
            "SELECT * FROM higgs TRAIN BY lr WITH max_epoch_num = 3, "
            f"block_size = 64KB, buffer_fraction = 0.1, seed = {seed}, "
            "grid = (lr = 0.01 | 0.001)"
        )
        self._cycle = self._train(
            "workers2", workers_sql, lambda r: r.query.extra["parallel"]["tuples_processed"]
        ) + self._train(
            "grid2", grid_sql, lambda r: r.query.extra["hopper"]["tuples_processed"]
        )


# ----------------------------------------------------------------------
# 6. serve_mixed
# ----------------------------------------------------------------------


#: The daemon's default, 256, makes 70 durable checkpoints of one job: 62 % of
#: its run time was ``durable_write``, i.e. blocking syscalls whose wake-up
#: latency on this host moves by itself (job medians of 350-540 ms from one
#: process to the next with the yardstick flat).  2048 leaves 9 per job.
CHECKPOINT_EVERY_TUPLES = 2048


class ServeMixed:
    """One daemon, two client threads: TRAIN jobs beside inline statements."""

    name = "serve_mixed"
    headline = "job"
    reference_name = "lr"
    simulated_clock = False
    score_floor = 0.60
    traced_headline = 3
    #: Client A's pace (statements/s): A holds the GIL ~5 % of the time.  An
    #: open loop keeps its rate when the host slows down, so its share of the
    #: GIL grows and the job slows down twice over: at 100/s (a quarter to a
    #: half of the GIL) job latency spread 46 % across ten runs.
    inline_rate_hz = 20.0

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.digests: dict[str, str] = {}
        self.reference: dict = {}
        self.server = None
        self.clients: list = []

    def build(self, seed: int, work_dir: Path) -> None:
        from repro.serve import ReproClient, ReproServer

        self.server = ReproServer(
            Path(work_dir) / "serve_data", job_workers=1, device="hdd-scaled",
            checkpoint_every_tuples=CHECKPOINT_EVERY_TUPLES,
        ).start()
        self.a = ReproClient(self.server.host, self.server.port)
        self.b = ReproClient(self.server.host, self.server.port)
        self.clients = [self.a, self.b]
        loaded = None
        for client in self.clients:
            loaded = client.load("susy", table="susy", order="clustered", seed=seed)
        self.n_tuples = loaded["n_tuples"]
        self.table_bytes = loaded["bytes"]
        t0 = time.perf_counter()
        self.a.sql("CREATE INDEX ix0 ON susy (f0)")
        self.index_build_s = time.perf_counter() - t0
        self.job_sql = (
            "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num = 3, "
            f"learning_rate = 0.01, block_size = 64KB, buffer_fraction = 0.1, seed = {seed}"
        )
        # A seeded cut with ~10 % of the rows above it.
        from repro.data import registry

        self.dataset = registry.load("susy", seed=seed)
        column = np.sort(np.asarray(self.dataset.X[:, 0]))
        self.cut = float(column[int(len(column) * 0.9)])
        self.rng = np.random.default_rng(seed)
        self.statement = 0
        self.live_key: float | None = None
        self.predict_model: str | None = None

    # -- client B: one job after another --------------------------------
    def _job(self, client, name: str = "lr") -> Sample:
        t0 = time.perf_counter()
        try:
            job_id = client.submit(self.job_sql)
            # poll_s well under the job's runtime, or its latency is
            # quantised to the client's 0.1 s default.
            final = client.wait(job_id, poll_s=0.005)
            wall = time.perf_counter() - t0
            model = client.fetch_model(job_id)
        except Exception as exc:  # noqa: BLE001
            return _failed("job", name, t0, exc)
        result = final.get("result") or {}
        digest = model_digest(model)
        first = self.digests.setdefault(name, digest)
        ok = (
            final["state"] == "done"
            and math.isfinite(result.get("final_train_loss", float("nan")))
            and result.get("final_train_score", 0.0) >= self.score_floor
            and digest == first
        )
        info = {
            "job_id": job_id,
            "digest": digest,
            "final_train_loss": result.get("final_train_loss"),
            "final_train_score": result.get("final_train_score"),
            "queue_wait_s": final.get("queue_wait_s", 0.0),
            "run_s": result.get("wall_s", 0.0),
        }
        self.reference.setdefault(name, info)
        return Sample("job", name, t0, wall, ok, int(result.get("tuples_seen", 0)), info)

    # -- client A: inline statements ------------------------------------
    def _next_inline(self):
        """``(kind, name, sql, check)`` of A's next round-robin statement;
        every 20th is a write (INSERT, then DELETE of that row, so the table
        stays its size)."""
        self.statement += 1
        i = self.statement
        if i % 20 == 0 and self.live_key is None:
            self.live_key = key = 1000.0 + i
            values = [float(v) for v in self.rng.standard_normal(18)]
            values[0] = key
            literal = ", ".join(repr(v) for v in [1.0] + values)
            return (
                "write", "insert", f"INSERT INTO susy VALUES ({literal})",
                lambda r: r["result"]["inserted"] == 1,
            )
        if i % 20 == 0:
            key, self.live_key = self.live_key, None
            return (
                "write", "delete", f"DELETE FROM susy WHERE f0 = {key!r}",
                lambda r: r["result"]["deleted"] == 1,
            )
        if i % 3 == 0:
            return (
                "read", "select", "SELECT * FROM susy LIMIT 5",
                lambda r: r["result"]["returned"] == 5,
            )
        if i % 3 == 1:
            return (
                "read", "select_where",
                f"SELECT * FROM susy WHERE f0 >= {self.cut!r} LIMIT 5",
                lambda r: r["result"]["returned"] == 5
                and r["result"]["via_index"] == "ix0"
                and all(row["features"][0] >= self.cut for row in r["result"]["rows"]),
            )
        return (
            "read", "predict", f"SELECT * FROM susy PREDICT BY {self.predict_model}",
            lambda r: r["n_predictions"] >= self.n_tuples,
        )

    def _inline(self, due: float | None = None) -> Sample:
        """One inline statement, timed from when it was due to be sent."""
        kind, name, sql, check = self._next_inline()
        sent = time.perf_counter()
        t0 = sent if due is None else min(due, sent)
        try:
            response = self.a.sql(sql)
            wall = time.perf_counter() - t0
            ok = bool(check(response))
        except Exception as exc:  # noqa: BLE001
            return _failed(kind, name, t0, exc)
        return Sample(kind, name, t0, wall, ok, info={"late_s": sent - t0})

    def warmup(self) -> None:
        # A's own first job gives its session a model to PREDICT BY.
        first = self._job(self.a, name="lr")
        if not first.ok:
            raise RuntimeError(f"warm-up job failed: {first.info}")
        self.predict_model = first.info["job_id"]
        # The daemon journals a job as `done` before it registers the model
        # in the session, so a client that saw `done` can still get "unknown
        # model" for a moment.  Wait that window out here; the timed section
        # only ever predicts by this long-registered model.
        from repro.serve import ServerError

        deadline = time.monotonic() + 5.0
        while True:
            try:
                self.a.sql(f"SELECT * FROM susy PREDICT BY {self.predict_model}")
                break
            except ServerError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)
        for _ in range(40):  # two of every inline shape, both writes
            sample = self._inline()
            if not sample.ok:
                raise RuntimeError(f"warm-up statement failed: {sample.name} {sample.info}")

    def run(self, deadline: float, clock, min_headline: int = 1, max_headline: int | None = None):
        """B submits jobs back to back (closed loop); A sends inline
        statements at ``inline_rate_hz`` for as long as B has a job in flight
        (open loop: each is timed from when it was due, and a backlog is
        capped at five statements).  Run flat out, A and the job thread
        fight over one GIL and the split between them differs from process
        to process — job latency then spread 13-29 % across ten runs.
        Between two jobs A pauses, so the host-clock reading B takes
        there sees an idle program."""
        jobs: list[Sample] = []
        inline: list[Sample] = []
        go, idle, finished = threading.Event(), threading.Event(), threading.Event()
        go.set()

        def client_b():
            try:
                while True:
                    jobs.append(self._job(self.b))
                    last = (max_headline is not None and len(jobs) >= max_headline) or (
                        len(jobs) >= min_headline and time.perf_counter() >= deadline
                    )
                    go.clear()
                    idle.wait(timeout=10.0)
                    clock.tick(force=True)
                    if last:
                        return
                    idle.clear()
                    go.set()
            finally:
                finished.set()
                go.set()

        thread = threading.Thread(target=client_b, name="bench-client-b")
        thread.start()
        period = 1.0 / self.inline_rate_hz
        due = time.perf_counter()
        try:
            while not finished.is_set():
                if not go.is_set():
                    idle.set()
                    go.wait()
                    due = time.perf_counter()
                    continue
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                inline.append(self._inline(due))
                due = max(due + period, time.perf_counter() - 5 * period)
        finally:
            idle.set()
            thread.join()
        return jobs + inline

    def finish(self) -> list[str]:
        failures = []
        try:
            if self.live_key is not None:  # leave A's table as loaded
                self.a.sql(f"DELETE FROM susy WHERE f0 = {self.live_key!r}")
                self.live_key = None
            counts = self.a.stats()["jobs"]
            if counts.get("failed") or counts.get("cancelled") or counts.get("rejected"):
                failures.append(f"job counts {counts}")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"stats: {type(exc).__name__}: {exc}")
        return failures

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def facts(self) -> dict:
        # The tables live in the daemon's sessions; `load` reported their size.
        return {"tables": [], "table_bytes": self.table_bytes, "model": "lr", "dataset": self.dataset}


WORKLOADS = {
    cls.name: cls
    for cls in (
        TrainDenseRow,
        TrainSparseColumnar,
        TrainWhereIndexed,
        DmlMixed,
        TrainParallelGrid,
        ServeMixed,
    )
}
