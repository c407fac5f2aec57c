"""One connected client = one :class:`Session` with its own catalog.

Each session owns a private :class:`~repro.db.engine.MiniDB` — tables and
models created over one connection are invisible to every other, exactly
like per-connection temp schemas in a real database.  The only shared
state is the server-wide job queue (jobs carry their ``session_id`` so
listings stay scoped) and the process-wide :mod:`repro.obs` registry,
which the session feeds with per-session labelled meters.

Statement routing
-----------------
``SELECT`` / ``EXPLAIN`` / ``PREDICT BY`` / ``EVALUATE BY`` are cheap and
run inline on the connection thread.  ``TRAIN BY`` is a multi-epoch scan —
it goes to the :class:`~repro.serve.jobs.JobManager` and the client gets a
``job_id`` back immediately (or a ``saturated`` rejection with a
``retry_after_s`` hint).  When a job finishes, the server registers the
trained model into the *owning* session's engine under the job id, so
``... PREDICT BY job_3`` works on the same connection that submitted it.
"""

from __future__ import annotations

import time

from .. import obs
from ..data import registry as data_registry
from ..data.orderings import clustered_by_label
from ..db.engine import MiniDB
from ..db.errors import EngineError, ParseError
from ..db.query import (
    CreateIndexQuery,
    DeleteQuery,
    DropIndexQuery,
    EvaluateQuery,
    ExplainQuery,
    InsertQuery,
    PredictQuery,
    SelectQuery,
    TrainQuery,
    UpdateQuery,
    parse_query,
)
from ..storage.iomodel import device_by_name
from .jobs import Saturated
from .protocol import encode_blob, err, ok

__all__ = ["Session"]


class Session:
    """Per-connection state + the request dispatch table."""

    def __init__(self, session_id: str, server):
        self.session_id = session_id
        self.server = server
        # The daemon's device, so this session's EXPLAIN and the job it
        # precedes are costed on the same curves.
        self.db = MiniDB(device=device_by_name(server.jobs.device), page_bytes=4096)
        self.connected_at = time.time()
        # Same-process tracer sharing the coordinator's wall anchor, so the
        # disconnect-time merge shifts spans by exactly zero (see
        # repro.obs.trace.Tracer).
        self.tracer = obs.get_tracer().fork()
        self._handlers = {
            "load": self._handle_load,
            "sql": self._handle_sql,
            "status": self._handle_status,
            "jobs": self._handle_jobs,
            "cancel": self._handle_cancel,
            "fetch_model": self._handle_fetch_model,
            "stats": self._handle_stats,
        }

    # ------------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Dispatch one decoded request frame to its handler."""
        rtype = request.get("type")
        handler = self._handlers.get(rtype)
        if handler is None:
            return err("bad_request", f"unknown request type {rtype!r}")
        obs.inc(f"serve.session.{self.session_id}.requests")
        t0 = time.perf_counter()
        try:
            with self.tracer.span(
                "serve.request", type=rtype, session=self.session_id
            ):
                return handler(request)
        except Saturated as exc:
            return err(
                "saturated",
                str(exc),
                retry_after_s=exc.retry_after_s,
                queue_depth=exc.depth,
            )
        except ParseError as exc:
            return err("parse_error", str(exc))
        except KeyError as exc:
            return err("not_found", str(exc.args[0]) if exc.args else str(exc))
        except (EngineError, ValueError) as exc:
            return err("engine_error", str(exc))
        except Exception as exc:  # noqa: BLE001 - one bad request must not
            # take the connection (let alone the daemon) down with it.
            return err("internal", f"{type(exc).__name__}: {exc}")
        finally:
            obs.observe(
                f"serve.session.{self.session_id}.request_s",
                time.perf_counter() - t0,
            )

    def close(self) -> None:
        """Fold this session's spans into the global tracer and drop state."""
        obs.get_tracer().merge(self.tracer, worker=self.session_id)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_load(self, request: dict) -> dict:
        name = request.get("dataset")
        if not name:
            return err("bad_request", "load requires a 'dataset' field")
        table = request.get("table") or name
        seed = int(request.get("seed", 0))
        try:
            dataset = data_registry.load(name, seed=seed)
        except KeyError as exc:
            return err("not_found", str(exc.args[0]))
        order = request.get("order", "shuffled")
        if order == "clustered":
            dataset = clustered_by_label(dataset, seed=seed)
        elif order != "shuffled":
            return err("bad_request", f"unknown order {order!r}")
        if table in self.db.catalog:
            self.db.catalog.drop_table(table)
        info = self.db.create_table(table, dataset)
        return ok(
            table=table,
            n_tuples=dataset.n_tuples,
            n_features=dataset.n_features,
            task=dataset.task,
            order=order,
            bytes=info.table_bytes,
        )

    def _handle_sql(self, request: dict) -> dict:
        sql = request.get("sql")
        if not sql or not isinstance(sql, str):
            return err("bad_request", "sql requires a 'sql' string field")
        query = parse_query(sql)
        if isinstance(query, TrainQuery):
            job = self.server.jobs.submit(self.session_id, sql, query, self.db)
            return ok(job_id=job.job_id, state=job.state)
        if isinstance(query, SelectQuery):
            return ok(result=self.db.select(query))
        if isinstance(query, ExplainQuery):
            return ok(plan=self.db.explain(query.inner))
        if isinstance(query, PredictQuery):
            predictions = self.db.predict(query)
            preview = predictions[:100]
            return ok(
                n_predictions=int(predictions.size),
                predictions=preview,
                truncated=bool(predictions.size > preview.size),
            )
        if isinstance(query, EvaluateQuery):
            return ok(result=self.db.evaluate(query))
        # DML and index DDL are cheap slot/tree mutations: run inline, like
        # SELECT — only multi-epoch TRAINs go through the job queue.
        if isinstance(query, InsertQuery):
            return ok(result=self.db.insert(query))
        if isinstance(query, DeleteQuery):
            return ok(result=self.db.delete(query))
        if isinstance(query, UpdateQuery):
            return ok(result=self.db.update(query))
        if isinstance(query, CreateIndexQuery):
            return ok(result=self.db.create_index(query))
        if isinstance(query, DropIndexQuery):
            return ok(result=self.db.drop_index(query))
        return err("bad_request", f"unsupported statement {type(query).__name__}")

    def _handle_status(self, request: dict) -> dict:
        job = self.server.jobs.get(self._job_id(request))
        return ok(job=job.describe())

    def _handle_jobs(self, request: dict) -> dict:
        scope = None if request.get("all") else self.session_id
        return ok(jobs=self.server.jobs.list(scope))

    def _handle_cancel(self, request: dict) -> dict:
        return ok(job=self.server.jobs.cancel(self._job_id(request)))

    def _handle_fetch_model(self, request: dict) -> dict:
        job_id = self._job_id(request)
        blob = self.server.jobs.model_bytes(job_id)
        return ok(job_id=job_id, model=encode_blob(blob))

    def _handle_stats(self, request: dict) -> dict:
        return ok(stats=self.server.stats())

    @staticmethod
    def _job_id(request: dict) -> str:
        job_id = request.get("job_id")
        if not job_id:
            raise ParseError("request requires a 'job_id' field")
        return str(job_id)
