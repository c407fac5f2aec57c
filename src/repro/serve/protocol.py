"""The serve wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  Every request carries a
``type`` field; every response carries ``ok`` (bool) plus type-specific
payload fields, or ``error``/``code`` when ``ok`` is false.  The framing is
deliberately the smallest thing that survives partial reads, interleaved
sessions, and megabyte model blobs — the PostgreSQL frontend/backend
protocol's message shape, minus everything this daemon doesn't need.

Requests (client → server)
--------------------------
``hello``        handshake: ``{"type": "hello", "version": 2}`` — must be
                 the first frame on a connection; the reply carries the
                 assigned ``session`` id and the ``version`` spoken.
                 Version 2 (the canonical typed TrainSpec document,
                 ``spec``, in job status payloads; ``TRAIN ... WITH grid``
                 jobs) is the only one: any other hello — v1's included —
                 is refused with ``version_mismatch`` and the supported
                 range (see docs/serve_protocol.md).
``load``         materialise a bundled dataset as a session table:
                 ``{"type": "load", "dataset": ..., "table": ...,
                 "order": "shuffled|clustered", "seed": 0}``.
``sql``          one statement.  SELECT / EXPLAIN / PREDICT BY /
                 EVALUATE BY run inline and return their result; TRAIN BY
                 is submitted to the job queue and returns ``job_id``
                 immediately (or ``code = "saturated"`` with
                 ``retry_after_s`` when admission control rejects it).
``status``       poll one job: ``{"type": "status", "job_id": ...}``.
``jobs``         list this session's jobs (or all with ``"all": true``).
``cancel``       cancel a queued or running job.
``fetch_model``  download a finished job's model blob (base64 npz).
``stats``        the live server stats surface (the ``\\bpstat`` idea):
                 sessions, queue depth, job counts, per-session meters.
``bye``          close the session cleanly.
``shutdown``     ask the daemon to stop (used by tests/CI; a real
                 deployment would gate this on an admin flag).

Model blobs travel base64-encoded inside the JSON frame rather than as a
side-channel binary message: at the scale of this engine's models (KBs to
a few MBs) the 4/3 inflation is irrelevant and the protocol stays
single-framed.
"""

from __future__ import annotations

import base64
import json
import socket
import struct

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ConnectionClosed",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "ok",
    "err",
    "encode_blob",
    "decode_blob",
]

PROTOCOL_VERSION = 2

#: Oldest client protocol the server still speaks — the current one.
MIN_PROTOCOL_VERSION = 2

#: Upper bound on one frame's payload; a peer announcing more is treated as
#: corrupt/hostile and the connection is dropped before allocating.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """Malformed frame or protocol-state violation; the connection dies."""


class ConnectionClosed(ConnectionError):
    """The peer closed the socket (mid-frame or between frames)."""


def _default(value):
    """JSON fallback for the numpy scalars/arrays results tend to carry."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__} on the wire")


def encode_frame(message: dict) -> bytes:
    """One message → length prefix + UTF-8 JSON bytes."""
    payload = json.dumps(message, default=_default).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    return _LEN.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict:
    """Payload bytes (no length prefix) → message dict."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must encode an object, got {type(message).__name__}")
    return message


def send_frame(sock: socket.socket, message: dict) -> None:
    """Write one frame; raises :class:`ConnectionClosed` on a dead peer."""
    try:
        sock.sendall(encode_frame(message))
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise ConnectionClosed(f"peer gone during send: {exc}") from exc


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except (ConnectionResetError, OSError) as exc:
            raise ConnectionClosed(f"peer gone during recv: {exc}") from exc
        if not chunk:
            if remaining == n and not chunks:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(f"connection died {remaining} bytes short of a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    """Read one complete frame (blocking)."""
    header = _recv_exactly(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"announced frame of {length} bytes exceeds cap")
    return decode_frame(_recv_exactly(sock, length))


# ----------------------------------------------------------------------
# Response constructors
# ----------------------------------------------------------------------


def ok(**fields) -> dict:
    """A success response."""
    return {"ok": True, **fields}


def err(code: str, message: str, **fields) -> dict:
    """A failure response; ``code`` is machine-readable (``saturated``,
    ``parse_error``, ``unknown_table``, ``unknown_job``, ``internal``...)."""
    return {"ok": False, "code": code, "error": message, **fields}


# ----------------------------------------------------------------------
# Binary payloads inside JSON frames
# ----------------------------------------------------------------------


def encode_blob(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


def decode_blob(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError(f"corrupt blob field: {exc}") from exc
