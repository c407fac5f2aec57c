"""The daemon: a socket server multiplexing sessions over one job queue.

``ReproServer`` binds a TCP socket (``127.0.0.1`` by default, port ``0``
for an ephemeral test port), accepts connections on a listener thread, and
runs each connection on its own thread speaking the
:mod:`repro.serve.protocol` framing.  Every connection gets a
:class:`~repro.serve.session.Session` (private catalog + models); every
``TRAIN BY`` goes through the shared :class:`~repro.serve.jobs.JobManager`
whose journal lives under ``data_dir`` — kill the process at any instant,
restart over the same directory, and in-flight jobs resume bit-exactly
from their checkpoints.

The bound address is advertised in ``<data_dir>/server.json`` so clients
(and the ``repro client`` CLI) can connect without being told a port.

Shutdown discipline: ``stop()`` closes the listener, shuts down every live
session socket, drains the job workers (running jobs re-journal as
``queued``), and joins all threads — a clean stop leaks nothing, which the
CI smoke job asserts.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
from pathlib import Path

from .. import obs
from ..ml.persistence import durable_write
from .jobs import JobManager
from .protocol import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    err,
    ok,
    recv_frame,
    send_frame,
)
from .session import Session

__all__ = ["ReproServer", "SERVER_FILE", "read_server_file"]

#: Advertisement file written under the data dir once the socket is bound.
SERVER_FILE = "server.json"


class ReproServer:
    """The long-lived training daemon."""

    def __init__(
        self,
        data_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queued: int = 8,
        job_workers: int = 2,
        checkpoint_every_tuples: int = 256,
        device: str = "ssd",
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.port = int(port)
        self.jobs = JobManager(
            self.data_dir,
            max_queued=max_queued,
            workers=job_workers,
            checkpoint_every_tuples=checkpoint_every_tuples,
            on_done=self._register_job_model,
            device=device,
        )
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._sessions: dict[str, Session] = {}
        self._session_sockets: dict[str, socket.socket] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._shutdown_requested = threading.Event()
        self._session_counter = 0
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Bind, recover journalled jobs, and begin accepting sessions."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        resumed = self.jobs.recover()
        self.jobs.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(32)
        # A short timeout turns accept() into a poll against the stop flag.
        listener.settimeout(0.5)
        self.host, self.port = listener.getsockname()
        self._listener = listener
        self._stop.clear()
        self._started_at = time.time()
        durable_write(
            self.data_dir / SERVER_FILE,
            json.dumps(
                {"host": self.host, "port": self.port, "pid": os.getpid()}
            ).encode(),
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        obs.inc("serve.starts")
        if resumed:
            obs.set_gauge("serve.jobs.resumed_on_boot", len(resumed))
        return self

    def serve_forever(self) -> None:
        """Block until a client sends ``shutdown`` or :meth:`stop` is called."""
        self._shutdown_requested.wait()
        self.stop()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop; joins every thread, leaks nothing."""
        if self._listener is None:
            return
        self._stop.set()
        self._shutdown_requested.set()
        with contextlib.suppress(OSError):
            self._listener.close()
        with self._lock:
            sockets = list(self._session_sockets.values())
        for sock in sockets:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        for t in list(self._conn_threads):
            t.join(timeout=timeout)
        self.jobs.stop(timeout=timeout)
        leaked = [
            t.name
            for t in ([self._accept_thread] if self._accept_thread else [])
            + self._conn_threads
            if t.is_alive()
        ]
        self._listener = None
        self._accept_thread = None
        self._conn_threads = []
        if leaked:
            raise RuntimeError(f"server threads failed to stop: {leaked}")

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="serve-conn",
                daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        session: Session | None = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = self._handshake(conn)
            if session is None:
                return
            thread = threading.current_thread()
            thread.name = f"serve-conn-{session.session_id}"
            while not self._stop.is_set():
                try:
                    request = recv_frame(conn)
                except (ConnectionClosed, ProtocolError):
                    return
                rtype = request.get("type")
                if rtype == "bye":
                    send_frame(conn, ok(session=session.session_id))
                    return
                if rtype == "shutdown":
                    send_frame(conn, ok(stopping=True))
                    self._shutdown_requested.set()
                    return
                try:
                    send_frame(conn, session.handle(request))
                except ConnectionClosed:
                    return
        finally:
            with contextlib.suppress(OSError):
                conn.close()
            if session is not None:
                with self._lock:
                    self._session_sockets.pop(session.session_id, None)
                session.close()
                obs.inc("serve.sessions.closed")

    def _handshake(self, conn: socket.socket) -> Session | None:
        """First frame must be a compatible ``hello``; reply with the sid."""
        try:
            hello = recv_frame(conn)
        except (ConnectionClosed, ProtocolError):
            return None
        if hello.get("type") != "hello":
            with contextlib.suppress(ConnectionClosed):
                send_frame(conn, err("bad_handshake", "first frame must be hello"))
            return None
        client_version = hello.get("version")
        if (
            not isinstance(client_version, int)
            or not MIN_PROTOCOL_VERSION <= client_version <= PROTOCOL_VERSION
        ):
            with contextlib.suppress(ConnectionClosed):
                send_frame(
                    conn,
                    err(
                        "version_mismatch",
                        f"server speaks protocols "
                        f"{MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}",
                        server_version=PROTOCOL_VERSION,
                        min_version=MIN_PROTOCOL_VERSION,
                    ),
                )
            return None
        with self._lock:
            self._session_counter += 1
            session_id = f"s{self._session_counter}"
            session = Session(session_id, self)
            self._sessions[session_id] = session
            self._session_sockets[session_id] = conn
        obs.inc("serve.sessions.opened")
        try:
            send_frame(
                conn,
                ok(session=session_id, version=client_version),
            )
        except ConnectionClosed:
            return None
        return session

    # ------------------------------------------------------------------
    # Job completion -> session model registry
    # ------------------------------------------------------------------
    def _register_job_model(self, job, model) -> None:
        """Expose a finished job's model as ``PREDICT BY <job_id>``.

        Runs on the job worker thread — the engine's model registry is
        lock-protected precisely for this write (see MiniDB).  The owning
        session may already be gone (or the job may predate this daemon
        incarnation); the model file on disk remains fetchable either way.
        """
        with self._lock:
            session = self._sessions.get(job.session_id)
        if session is not None:
            session.db.register_model(model, model_id=job.job_id)

    # ------------------------------------------------------------------
    # The live stats surface (the ``\\bpstat`` idea)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A JSON-ready snapshot of daemon, queue, job, and session state."""
        registry = obs.get_registry()
        with self._lock:
            session_ids = sorted(
                self._session_sockets, key=lambda s: int(s.lstrip("s"))
            )
        sessions = {}
        for sid in session_ids:
            sessions[sid] = {
                "requests": registry.counter(f"serve.session.{sid}.requests"),
                "jobs_submitted": registry.counter(
                    f"serve.session.{sid}.jobs_submitted"
                ),
                "jobs_completed": registry.counter(
                    f"serve.session.{sid}.jobs_completed"
                ),
            }
        return {
            "server": {
                "host": self.host,
                "port": self.port,
                "uptime_s": round(time.time() - (self._started_at or time.time()), 3),
                "sessions_open": len(session_ids),
                "sessions_total": self._session_counter,
            },
            "queue": {
                "depth": self.jobs.queue_depth(),
                "capacity": self.jobs.max_queued,
                "workers": self.jobs.n_workers,
                "running": self.jobs.running(),
            },
            "jobs": {
                **self.jobs.counts(),
                "rejected": registry.counter("serve.jobs.rejected"),
                "queue_wait_s": registry.histogram("serve.queue.wait_s"),
            },
            "sessions": sessions,
            # DML, process-wide: index-log traffic and the O(table) rebuilds.
            "storage": {
                name.rsplit(".", 1)[1]: registry.counter(name)
                for name in (
                    *(f"storage.index.{c}" for c in ("wal_frames", "wal_bytes", "checkpoints")),
                    "db.catalog.view_rebuilds",
                    "storage.heapfile.directory_rebuilds",
                )
            },
        }


def read_server_file(data_dir: str | Path) -> dict:
    """Read the daemon advertisement written by :meth:`ReproServer.start`."""
    path = Path(data_dir) / SERVER_FILE
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no {SERVER_FILE} under {data_dir} — is the daemon running?"
        ) from None
