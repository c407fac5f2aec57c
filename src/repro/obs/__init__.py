"""``repro.obs`` — the one observability API for the whole repo.

Everything the paper's evaluation needs to attribute wall-clock time —
I/O vs shuffle vs SGD, producer stall vs consumer wait, retries, barrier
waits — reports through this package:

* a process-wide metrics :class:`Registry` (counters / gauges / bounded
  histograms; picklable, cross-process mergeable) — the only counter store
  (:class:`LoaderMetrics` / :class:`StorageMetrics` are named scopes of one:
  a private count of one loader or fault plane for its caller to assert on);
* a structured :class:`Tracer` of nested :func:`span`\\ s with monotonic
  timestamps, parent ids, and per-span attributes — near-zero overhead
  while disabled (the default);
* exporters: JSONL trace (:func:`trace_to`), flat JSON metrics snapshot,
  and the human ``repro obs-report`` summary tree (:func:`report`).

The report helpers (``overlap_report``, ``chaos_report``, ``Timeline``)
render what this package recorded.

Layering: this package imports **nothing** from the rest of ``repro`` —
it sits at the bottom of the dependency graph so every other layer (storage,
db, ml, parallel, faults, cli, bench) can instrument itself freely.

Typical use::

    from repro import obs

    with obs.trace_to("run.trace.jsonl", metrics_path="run.metrics.json"):
        with obs.span("epoch", epoch=0):
            ...
        obs.inc("ml.tuples_trained", 4096)
    print(obs.report("run.trace.jsonl"))
"""

from __future__ import annotations

from contextlib import contextmanager

from .adapters import SESSION_LOADER, SESSION_STORAGE, LoaderMetrics, StorageMetrics
from .export import (
    DEFAULT_SCHEMA_PATH,
    load_schema,
    read_trace_jsonl,
    render_report,
    span_event,
    validate_events,
    write_metrics_json,
    write_trace_jsonl,
)
from .registry import SESSION as _REGISTRY, Registry
from .trace import NULL_SPAN, Span, Tracer

__all__ = [
    # facade
    "Registry",
    "span",
    "trace_to",
    "merge",
    "report",
    # session state
    "enabled",
    "enable",
    "disable",
    "reset",
    "get_registry",
    "get_tracer",
    # recording helpers
    "add_span",
    "inc",
    "observe",
    "set_gauge",
    "set_max",
    # building blocks
    "Tracer",
    "Span",
    "NULL_SPAN",
    "LoaderMetrics",
    "StorageMetrics",
    "SESSION_LOADER",
    "SESSION_STORAGE",
    # exporters
    "write_trace_jsonl",
    "write_metrics_json",
    "read_trace_jsonl",
    "render_report",
    "validate_events",
    "load_schema",
    "span_event",
    "DEFAULT_SCHEMA_PATH",
]

#: The process-wide session telemetry: ``_REGISTRY`` (always recording) and
#: the tracer, disabled until :func:`enable` / :func:`trace_to` turns it on —
#: a disabled ``span()`` costs one attribute check.
_TRACER = Tracer(enabled=False)


def get_registry() -> Registry:
    return _REGISTRY


def get_tracer() -> Tracer:
    return _TRACER


def enabled() -> bool:
    """Is span tracing currently on?  (Hot paths gate extra work on this.)"""
    return _TRACER.enabled


def enable() -> None:
    _TRACER.enabled = True


def disable() -> None:
    _TRACER.enabled = False


def reset() -> None:
    """Clear the session registry and tracer (tests; fresh CLI runs)."""
    _REGISTRY.reset()
    _TRACER.reset()


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


def span(name: str, **attrs):
    """Open a session span: ``with obs.span("epoch", epoch=3): ...``."""
    return _TRACER.span(name, **attrs)


def add_span(name: str, start: float, end: float, **attrs):
    """Record an out-of-band interval into the session tracer."""
    return _TRACER.add_span(name, start, end, **attrs)


def inc(name: str, n: float = 1) -> None:
    _REGISTRY.inc(name, n)


def observe(name: str, value: float) -> None:
    _REGISTRY.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    _REGISTRY.set_gauge(name, value)


def set_max(name: str, value: float) -> None:
    _REGISTRY.set_max(name, value)


# ----------------------------------------------------------------------
# Merge — the single fold for every telemetry object in the repo
# ----------------------------------------------------------------------


def merge(into, other):
    """Fold ``other`` into ``into`` (in place) and return ``into``.

    Dispatches on type: two registries or two tracers (mismatched kinds
    raise ``TypeError``).  A scope's ``merge`` is its registry's.
    """
    if isinstance(into, Registry) and isinstance(other, Registry):
        return into.merge(other)
    if isinstance(into, Tracer) and isinstance(other, Tracer):
        return into.merge(other)
    raise TypeError(
        f"cannot merge {type(other).__name__} into {type(into).__name__}"
    )


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


@contextmanager
def trace_to(trace_path=None, metrics_path=None):
    """Trace the enclosed block and export on exit.

    Enables the session tracer for the duration (restoring its previous
    state afterwards), then writes the JSONL trace to ``trace_path`` and/or
    the flat metrics snapshot to ``metrics_path``.  Either path may be
    None; with both None this is just a scoped ``enable()``.
    Yields ``(tracer, registry)``.
    """
    prev = _TRACER.enabled
    _TRACER.enabled = True
    try:
        yield (_TRACER, _REGISTRY)
    finally:
        _TRACER.enabled = prev
        if trace_path is not None:
            write_trace_jsonl(trace_path, _TRACER, _REGISTRY)
        if metrics_path is not None:
            write_metrics_json(metrics_path, _REGISTRY)


def report(source=None, registry=None, **kwargs) -> str:
    """The human summary tree for a tracer, event list, or trace file.

    With no arguments, reports the live session tracer and registry.
    """
    if source is None:
        source = _TRACER
        registry = _REGISTRY if registry is None else registry
    return render_report(source, registry=registry, **kwargs)
