"""The metrics half of :mod:`repro.obs`: one process-safe registry.

A :class:`Registry` holds three metric kinds under dotted names
(``"storage.bufferpool.hits"``):

* **counters** — monotonically increasing sums (``inc``);
* **gauges** — last-observed level where *merging* keeps the max (queue
  depths, pool occupancy — values that do not add across processes);
* **histograms** — count/sum/min/max kept exactly, plus a bounded
  reservoir of raw observations for percentile estimates.

A registry is picklable (snapshot the values, drop the lock, fresh lock on
load) and cross-process mergeable: workers ship theirs home and the
coordinator folds them into one.  The merge is associative — counters add,
gauges max, histogram moments fold exactly and reservoirs
concatenate-then-truncate — so any fold order over worker registries
produces the same snapshot (asserted by ``tests/test_obs.py``).

It is the repo's only counter store: :data:`SESSION` is the process-wide
one, and a :class:`Scope` keeps its fields in a private one.
"""

from __future__ import annotations

import threading

__all__ = ["Registry", "Scope", "SESSION", "RESERVOIR_MAX"]

#: Per-histogram cap on retained raw observations.  Concatenate-then-truncate
#: keeps the merge associative (the survivors depend only on insertion order,
#: which the fold preserves left-to-right).
RESERVOIR_MAX = 512


def _new_hist() -> dict:
    return {"count": 0, "sum": 0.0, "min": None, "max": None, "reservoir": []}


class Registry:
    """A named bag of counters, gauges, and histograms behind one lock."""

    def __init__(self, name: str = "registry"):
        self.name = name
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, dict] = {}

    # -- recording ------------------------------------------------------
    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Record the current level of gauge ``name``."""
        with self._lock:
            self._gauges[name] = value

    def set_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new high-water mark."""
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to histogram ``name``."""
        value = float(value)
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                h = self._hists[name] = _new_hist()
            h["count"] += 1
            h["sum"] += value
            h["min"] = value if h["min"] is None else min(h["min"], value)
            h["max"] = value if h["max"] is None else max(h["max"], value)
            if len(h["reservoir"]) < RESERVOIR_MAX:
                h["reservoir"].append(value)

    # -- reading --------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> dict | None:
        """A summary dict for histogram ``name`` (or None if never observed)."""
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                return None
            return self._hist_summary(h)

    @staticmethod
    def _hist_summary(h: dict) -> dict:
        res = sorted(h["reservoir"])
        summary = {
            "count": h["count"],
            "sum": h["sum"],
            "min": h["min"],
            "max": h["max"],
            "mean": h["sum"] / h["count"] if h["count"] else None,
        }
        if res:
            summary["p50"] = res[len(res) // 2]
            summary["p95"] = res[min(len(res) - 1, int(len(res) * 0.95))]
        return summary

    def snapshot(self) -> dict:
        """Everything, as one JSON-able dict (the flat metrics export)."""
        with self._lock:
            return {
                "name": self.name,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: self._hist_summary(h) for name, h in self._hists.items()
                },
            }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Registry":
        """Rebuild a registry from a :meth:`snapshot` dict (e.g. a metrics
        export read back from disk).  Histogram moments are restored exactly;
        the percentile reservoir is not part of the snapshot, so re-derived
        percentiles are unavailable on the rebuilt registry.
        """
        reg = cls(snapshot.get("name", "snapshot"))
        reg._counters = dict(snapshot.get("counters", {}))
        reg._gauges = dict(snapshot.get("gauges", {}))
        for name, s in snapshot.get("histograms", {}).items():
            reg._hists[name] = {
                "count": s["count"],
                "sum": s["sum"],
                "min": s["min"],
                "max": s["max"],
                "reservoir": [],
            }
        return reg

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._gauges) + len(self._hists)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()

    # -- merge / pickle -------------------------------------------------
    def merge(self, other: "Registry", prefix: str | None = None) -> "Registry":
        """Fold ``other`` into this registry (in place), its metrics under
        ``<prefix>.<name>`` when a prefix is given; returns self."""
        if not isinstance(other, Registry):
            raise TypeError(f"cannot merge {type(other).__name__} into Registry")
        state = other.__getstate__()
        if prefix is not None:
            for kind in ("counters", "gauges", "hists"):
                state[kind] = {f"{prefix}.{k}": v for k, v in state[kind].items()}
        with self._lock:
            for name, value in state["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in state["gauges"].items():
                if value > self._gauges.get(name, float("-inf")):
                    self._gauges[name] = value
            for name, theirs in state["hists"].items():
                h = self._hists.get(name)
                if h is None:
                    h = self._hists[name] = _new_hist()
                h["count"] += theirs["count"]
                h["sum"] += theirs["sum"]
                for key, pick in (("min", min), ("max", max)):
                    if theirs[key] is not None:
                        h[key] = (
                            theirs[key]
                            if h[key] is None
                            else pick(h[key], theirs[key])
                        )
                h["reservoir"] = (h["reservoir"] + theirs["reservoir"])[:RESERVOIR_MAX]
        return self

    def __add__(self, other: "Registry") -> "Registry":
        if not isinstance(other, Registry):
            return NotImplemented
        name = self.name if self.name == other.name else f"{self.name}+{other.name}"
        total = Registry(name)
        total.merge(self)
        total.merge(other)
        return total

    def __iadd__(self, other: "Registry") -> "Registry":
        if not isinstance(other, Registry):
            return NotImplemented
        return self.merge(other)

    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                # Deep-copy the mutable histogram cells so the pickled
                # snapshot cannot alias live state.
                "hists": {
                    k: {**h, "reservoir": list(h["reservoir"])}
                    for k, h in self._hists.items()
                },
            }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._lock = threading.Lock()
        self._counters = dict(state["counters"])
        self._gauges = dict(state["gauges"])
        self._hists = {
            k: {**h, "reservoir": list(h["reservoir"])}
            for k, h in state["hists"].items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.name!r}, {len(self)} metrics)"


#: The process-wide session registry (``repro.obs.get_registry()``).  It
#: always records: its call sites are per-block / per-epoch, never per-tuple.
SESSION = Registry("session")


class Scope:
    """A named group of fields kept in a private :class:`Registry`.

    A subclass declares the fields and the events that write them (see
    :mod:`repro.obs.adapters`); the fields read, and assign, as attributes.
    An event :data:`SESSION` has a name for is counted there too, by the same
    :meth:`_count` — one call per event, whether or not the site's caller
    handed it a scope.  Pickle, merge and reset are the private registry's;
    merging scope into scope forwards nothing.
    """

    #: field -> its zero (``0`` or ``0.0``: the type it counts in), in report
    #: order.  The ``_GAUGES`` among them merge by max, not sum (queue depths
    #: don't add across processes); ``_DERIVED`` properties close as_dict().
    _FIELDS: dict[str, float] = {}
    _GAUGES: tuple[str, ...] = ()
    _DERIVED: tuple[str, ...] = ()

    def __init__(self, name: str):
        self.name = name
        self._registry = Registry(name)
        self.reset()

    def reset(self) -> None:
        self._registry.reset()
        # Zero-seeded, so as_dict() and to_registry() always carry every
        # field and a float field reads 0.0 before its first event.
        for field, zero in self._FIELDS.items():
            self._count(field, zero)

    def _count(self, field: str, n: float = 1, session: str | None = None) -> None:
        """One event: ``n`` onto ``field`` (a gauge rises to ``n``) and onto
        the event's name in the session registry."""
        if self._registry is not None:
            (self._registry.set_max if field in self._GAUGES else self._registry.inc)(field, n)
        if session is not None:
            SESSION.inc(session, n)

    _lock = property(lambda self: self._registry._lock)

    def __getattr__(self, field: str):
        # Only for names not set on the instance.  A non-field must raise
        # before ``_registry`` is touched: unpickling probes an empty instance.
        if field not in self._FIELDS:
            raise AttributeError(field)
        return (self._registry.gauge if field in self._GAUGES else self._registry.counter)(field)

    def __setattr__(self, field: str, value) -> None:
        if field not in self._FIELDS:
            return super().__setattr__(field, value)
        cells = self._registry._gauges if field in self._GAUGES else self._registry._counters
        with self._lock:
            cells[field] = value

    def as_dict(self) -> dict:
        """Snapshot the name and every field (plus the derived ones)."""
        snap = self._registry.snapshot()
        values = {**snap["counters"], **snap["gauges"]}
        derived = {p: getattr(self, p) for p in self._DERIVED}
        return {"name": self.name, **{f: values[f] for f in self._FIELDS}, **derived}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.as_dict()})"

    def merge(self, other: "Scope") -> "Scope":
        """Fold ``other``'s fields into this scope (in place).  Scopes merge
        when they count the same fields — loader with loader."""
        if getattr(other, "_FIELDS", None) is not self._FIELDS:
            raise TypeError(f"cannot merge {type(other).__name__} into {type(self).__name__}")
        self._registry.merge(other._registry)
        return self

    __iadd__ = merge

    def __add__(self, other: "Scope") -> "Scope":
        total = type(self)(self.name).merge(self).merge(other)
        if other.name != self.name:
            total.name = f"{self.name}+{other.name}"
        return total

    def to_registry(self, registry: Registry, prefix: str | None = None) -> None:
        """Export the fields as ``<prefix>.<field>`` (default: the scope name)."""
        registry.merge(self._registry, prefix=self.name if prefix is None else prefix)
