"""Fault plans: seeded, declarative schedules of storage/execution faults.

A :class:`FaultPlan` answers one question for the storage wrappers: *what
happens to attempt ``a`` of a read of unit ``u`` (block/page/index node)
``i``?*  The training loops never consult it: a run stops at its
``should_stop`` probe, or dies — by SIGKILL, or by a read this plan crashes.

Two ways to build a plan:

* **explicit** — a list of :class:`FaultSpec` entries pinning faults to
  concrete reads ("page 3 fails its checksum once, starting from its second
  read"), used by regression tests that need a surgical fault;
* **random** — :meth:`FaultPlan.random` draws a fault schedule from a seed
  and per-unit probabilities.  Crucially the draw for a unit is a *pure
  function of ``(seed, unit, id)``*: the same plan produces the same fault
  schedule no matter how reads interleave across loader threads, which is
  what makes the chaos suite deterministic under real concurrency.

Faults come in four kinds:

* ``transient`` — the read attempt raises
  :class:`~repro.storage.retry.TransientReadError`;
* ``torn`` — the attempt returns corrupted bytes; the reader's checksum
  verification catches it and retries;
* ``latency`` — the read sleeps ``delay_s`` (spike injection);
* ``crash`` — the read raises :class:`InjectedCrash`, simulating a process
  killed mid-read.  It fires on one read *call* of its unit (``from_read``),
  so a run resumed under the same plan reads that unit again and survives.

``transient``/``torn`` specs bound their failing attempts (``times``), so a
retry budget of ``times + 1`` always succeeds — the invariant behind the
"retries are invisible" property test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..core.seeding import FAULT_UNIT_CODES as _UNIT_CODES
from ..core.seeding import fault_unit_rng

__all__ = ["InjectedCrash", "FaultSpec", "FaultDecision", "FaultPlan"]

KINDS = ("transient", "torn", "latency", "crash")


class InjectedCrash(RuntimeError):
    """A simulated process kill: a read the plan crashes (a ``crash`` spec).

    Deliberately *not* an ``IOError``: the storage retry loop only retries
    :class:`~repro.storage.retry.RetryableIOError`, so a crash always
    propagates — through retry loops, prefetch threads, operators and the
    training loop — and ends the run between two checkpoint saves, as a real
    ``kill -9`` would; the run's checkpoint file is what it resumes from.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One pinned fault: *what* happens to *which* reads of *which* unit.

    ``times`` bounds how many consecutive attempts fail (transient/torn);
    ``from_read`` selects which read *call* of the unit the fault starts on
    (1-based), so a test can let a page be read cleanly (and cached) before
    the fault window opens — the stale-cache regression scenario.
    """

    kind: str
    unit: str = "block"
    target: int = 0
    times: int = 1
    delay_s: float = 0.0
    from_read: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if self.unit not in _UNIT_CODES:
            raise ValueError(f"unknown unit {self.unit!r}; one of {tuple(_UNIT_CODES)}")
        if self.times < 1:
            raise ValueError("times must be at least 1")
        if self.from_read < 1:
            raise ValueError("from_read is 1-based")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


@dataclass(frozen=True)
class FaultDecision:
    """The plan's verdict for one read attempt."""

    transient: bool = False
    corrupt: bool = False
    crash: bool = False
    delay_s: float = 0.0

    @property
    def clean(self) -> bool:
        return not (self.transient or self.corrupt or self.crash or self.delay_s)


@dataclass
class _UnitDraw:
    """The random fault schedule of one (unit, id): drawn once, pure."""

    transient_fails: int = 0
    torn_fails: int = 0
    delay_s: float = 0.0


class FaultPlan:
    """A seeded, declarative schedule of faults.

    Thread-safe: the random side is a pure function of ``(seed, unit, id)``
    (memoised under a lock), and the per-unit read-call counters used by
    explicit ``from_read`` specs are lock-protected.
    """

    def __init__(
        self,
        seed: int = 0,
        specs: list[FaultSpec] | None = None,
        *,
        p_transient: float = 0.0,
        p_torn: float = 0.0,
        p_latency: float = 0.0,
        latency_s: float = 0.0,
        max_failures: int = 2,
    ):
        for name, p in (("p_transient", p_transient), ("p_torn", p_torn), ("p_latency", p_latency)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if max_failures < 1:
            raise ValueError("max_failures must be at least 1")
        if latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        self.seed = int(seed)
        self.specs = list(specs or [])
        self.p_transient = float(p_transient)
        self.p_torn = float(p_torn)
        self.p_latency = float(p_latency)
        self.latency_s = float(latency_s)
        self.max_failures = int(max_failures)
        self._lock = threading.Lock()
        self._draws: dict[tuple[str, int], _UnitDraw] = {}
        self._read_calls: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: drop the lock, keep the schedule and read counters.

        The multi-process engine ships plans to spawned workers; random
        draws are pure functions of ``(seed, unit, id)`` so the memo cache
        travels harmlessly (it would be re-derived identically anyway).
        """
        with self._lock:
            state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        p_transient: float = 0.2,
        p_torn: float = 0.0,
        p_latency: float = 0.0,
        latency_s: float = 0.0002,
        max_failures: int = 2,
    ) -> "FaultPlan":
        """A purely random plan (no pinned specs) from probabilities."""
        return cls(
            seed,
            p_transient=p_transient,
            p_torn=p_torn,
            p_latency=p_latency,
            latency_s=latency_s,
            max_failures=max_failures,
        )

    @property
    def transient_only(self) -> bool:
        """True when every possible fault is invisible under retry.

        Transient errors, torn reads (caught by checksum), and latency
        spikes are all absorbed; crashes are not.
        """
        return not any(s.kind == "crash" for s in self.specs)

    @property
    def max_consecutive_failures(self) -> int:
        """Worst-case failing attempts for any single read under this plan.

        A random draw can stack transient failures *followed by* torn reads
        on the same unit, so the random side budgets ``max_failures`` per
        enabled fault family, not overall.
        """
        pinned = max((s.times for s in self.specs if s.kind in ("transient", "torn")), default=0)
        families = (self.p_transient > 0) + (self.p_torn > 0)
        return max(pinned, self.max_failures * families)

    # ------------------------------------------------------------------
    def _draw(self, unit: str, target: int) -> _UnitDraw:
        key = (unit, int(target))
        with self._lock:
            cached = self._draws.get(key)
            if cached is not None:
                return cached
        rng = fault_unit_rng(self.seed, unit, int(target))
        # One uniform per fault family keeps the stream layout stable as
        # probabilities change (the same seed afflicts the same units).
        u_transient, u_torn, u_latency, u_count = rng.random(4)
        draw = _UnitDraw()
        n_fails = 1 + int(u_count * self.max_failures) if self.max_failures > 1 else 1
        if u_transient < self.p_transient:
            draw.transient_fails = min(n_fails, self.max_failures)
        if u_torn < self.p_torn:
            draw.torn_fails = min(n_fails, self.max_failures)
        if u_latency < self.p_latency:
            draw.delay_s = self.latency_s
        with self._lock:
            return self._draws.setdefault(key, draw)

    def _spec_window(self, spec: FaultSpec, read_call: int, attempt: int) -> bool:
        if read_call < spec.from_read:
            return False
        if spec.kind == "latency":
            return True
        if spec.kind == "crash":
            return read_call == spec.from_read
        # transient / torn: fail attempts 1..times of every read in the window
        return attempt <= spec.times

    def decide(self, unit: str, target: int, attempt: int) -> FaultDecision:
        """The fate of ``attempt`` (1-based) of the current read of a unit.

        The first attempt of a read advances the unit's read-call counter;
        retries (attempt > 1) belong to the same read call.
        """
        if unit not in _UNIT_CODES:
            raise ValueError(f"unknown unit {unit!r}")
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        key = (unit, int(target))
        with self._lock:
            if attempt == 1:
                self._read_calls[key] = self._read_calls.get(key, 0) + 1
            read_call = self._read_calls.get(key, 1)

        transient = corrupt = crash = False
        delay = 0.0
        for spec in self.specs:
            if spec.unit != unit or spec.target != int(target):
                continue
            if not self._spec_window(spec, read_call, attempt):
                continue
            if spec.kind == "transient":
                transient = True
            elif spec.kind == "torn":
                corrupt = True
            elif spec.kind == "latency":
                delay = max(delay, spec.delay_s)
            elif spec.kind == "crash":
                crash = True

        draw = self._draw(unit, target)
        # Random transient failures come first, then torn ones: attempt
        # 1..t raises, t+1..t+k corrupts, t+k+1.. is clean.
        if attempt <= draw.transient_fails:
            transient = True
        elif attempt <= draw.transient_fails + draw.torn_fails:
            corrupt = True
        if draw.delay_s and attempt == 1:
            delay = max(delay, draw.delay_s)
        return FaultDecision(transient=transient, corrupt=corrupt, crash=crash, delay_s=delay)

    def describe(self) -> dict:
        """A JSON-able summary (used by ``python -m repro chaos``)."""
        return {
            "seed": self.seed,
            "p_transient": self.p_transient,
            "p_torn": self.p_torn,
            "p_latency": self.p_latency,
            "latency_s": self.latency_s,
            "max_failures": self.max_failures,
            "specs": len(self.specs),
            "transient_only": self.transient_only,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.describe().items())
        return f"FaultPlan({body})"
