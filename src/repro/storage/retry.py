"""Bounded retry-with-backoff for the storage read path.

Real deployments of an in-database trainer see *transient* storage faults —
a read that fails once and succeeds when reissued, or a torn page whose
checksum does not match the bytes read (Section 7's storage media are
exactly where such faults live).  This module defines the error taxonomy the
storage layer uses to distinguish retryable from fatal failures, plus the
:class:`RetryPolicy` that every verified read path
(:class:`~repro.storage.blockfile.BlockFileReader`,
:class:`~repro.storage.bufferpool.BufferPool`) runs under:

* :class:`RetryableIOError` — marker base class: reissuing the read may
  succeed.  :class:`TransientReadError` (the device errored) and
  :class:`ChecksumError` (the bytes read do not match the stored checksum —
  a torn or corrupt page) are its two concrete forms.
* :class:`ReadExhaustedError` — the bounded retry budget is spent; the fault
  is treated as unrecoverable and surfaces to the caller (the db engine
  translates it into a typed ``StorageError`` with partial progress).

Retries are *invisible* above the storage layer: a read either returns
verified bytes or raises :class:`ReadExhaustedError`.  Every attempt, retry,
and exhaustion is an event on the caller's :class:`~repro.obs.StorageMetrics`
scope (the session's when handed none), so chaos runs can assert that faults
really happened even though the model output is unchanged.
"""

from __future__ import annotations

import time
from typing import Any, Callable, TypeVar

from .. import obs

__all__ = [
    "RetryableIOError",
    "TransientReadError",
    "ChecksumError",
    "ReadExhaustedError",
    "RetryPolicy",
]

T = TypeVar("T")


class RetryableIOError(IOError):
    """A storage read failure that may succeed if the read is reissued."""


class TransientReadError(RetryableIOError):
    """The device/file reported an error for this read attempt."""


class ChecksumError(RetryableIOError):
    """The bytes read do not match their stored checksum (torn/corrupt page)."""


class ReadExhaustedError(IOError):
    """A read kept failing after the full retry budget.

    Carries the attempt count and the last underlying failure so the engine
    layer can report *what* gave up, not just that something did.
    """

    def __init__(self, describe: str, attempts: int, last_error: Exception):
        super().__init__(
            f"{describe}: still failing after {attempts} attempt(s): {last_error}"
        )
        self.describe = describe
        self.attempts = attempts
        self.last_error = last_error


class RetryPolicy:
    """Bounded retry with capped, jittered exponential backoff.

    ``max_attempts`` counts the first try: ``RetryPolicy(3)`` issues at most
    three reads.  ``backoff_s`` seeds the backoff envelope before each
    *retry*; the envelope grows by ``backoff_factor`` and is capped at
    ``max_backoff_s``.  The default ``backoff_s`` of zero keeps tests
    instant and deterministic while production callers opt into real
    backoff.

    With ``jitter`` (the default) each sleep is drawn uniformly from
    ``[0, envelope]`` ("full jitter") so concurrent sessions retrying the
    same faulty device spread out instead of synchronising into a
    thundering herd of simultaneous re-reads.  The draws come from a
    :mod:`repro.core.seeding` stream keyed by ``(seed,
    RETRY_BACKOFF_STREAM)``: chaos runs stay bit-reproducible for a given
    seed, and callers de-synchronise by giving each session its own seed
    (the serve daemon uses the session ordinal).  ``jitter=False`` restores
    the deterministic pure-exponential schedule.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        backoff_s: float = 0.0,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 30.0,
        jitter: bool = True,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")
        if max_backoff_s <= 0:
            raise ValueError("max_backoff_s must be positive")
        self.max_attempts = int(max_attempts)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff_s = float(max_backoff_s)
        self.jitter = bool(jitter)
        self.seed = int(seed)
        self._sleep = sleep
        self._rng = None  # lazily derived; zero-backoff policies never draw

    def _next_delay(self, envelope: float) -> float:
        """One backoff sleep: the capped envelope, jittered when enabled."""
        envelope = min(envelope, self.max_backoff_s)
        if not self.jitter:
            return envelope
        if self._rng is None:
            # Imported lazily: repro.core pulls in the storage package, so a
            # module-level import here would be circular.
            from ..core.seeding import RETRY_BACKOFF_STREAM, derive_rng

            self._rng = derive_rng(self.seed, RETRY_BACKOFF_STREAM)
        return float(self._rng.uniform(0.0, envelope))

    def run(
        self,
        attempt_fn: Callable[[int], T],
        stats: Any | None = None,
        describe: str = "storage read",
        on_retry: Callable[[Exception], None] | None = None,
    ) -> T:
        """Call ``attempt_fn(attempt)`` (1-based) until it returns.

        Only :class:`RetryableIOError` triggers a retry — anything else
        (including an injected crash) propagates immediately.  ``on_retry``
        runs after each failed attempt, before the backoff sleep; callers
        use it to drop state the failed read may have poisoned (e.g. the
        buffer pool invalidating a cached page).
        """
        stats = stats or obs.SESSION_STORAGE
        delay = self.backoff_s
        last: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            stats.record_attempt()
            try:
                result = attempt_fn(attempt)
            except RetryableIOError as exc:
                last = exc
                stats.record_fault(exc)
                if on_retry is not None:
                    on_retry(exc)
                if attempt < self.max_attempts:
                    stats.record_retry()
                    if delay > 0:
                        self._sleep(self._next_delay(delay))
                        delay = min(
                            delay * self.backoff_factor, self.max_backoff_s
                        )
                continue
            stats.record_ok()
            return result
        stats.record_exhausted()
        assert last is not None
        raise ReadExhaustedError(describe, self.max_attempts, last)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"backoff_s={self.backoff_s}, backoff_factor={self.backoff_factor}, "
            f"max_backoff_s={self.max_backoff_s}, jitter={self.jitter}, "
            f"seed={self.seed})"
        )
