"""Deterministic fault injection for the storage and execution layers.

``repro.faults`` is the chaos plane of the reproduction: a seeded,
declarative :class:`FaultPlan` describes *exactly which* reads fail (and
how), wrapper stores (:class:`FaultyBlockFileReader`, :class:`FaultyHeapFile`)
inject those faults underneath the verified read paths, and the harness
helpers wire a plan through a whole training stack so the chaos tests and
``python -m repro chaos`` can assert two guarantees:

* **transparency** — transient faults are absorbed by checksums + bounded
  retries; the trained model is bit-identical to a fault-free run;
* **resumability** — a run killed mid-epoch resumes from its last
  checkpoint with the exact remaining visit order, so final weights match
  an uninterrupted run.
"""

from .plan import FaultDecision, FaultPlan, FaultSpec, InjectedCrash
from .store import (
    FaultyBlockFileReader,
    FaultyHeapFile,
    corrupt_bytes,
)
from .harness import chaos_report, faulty_reader_factory, faulty_table

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultDecision",
    "InjectedCrash",
    "FaultyBlockFileReader",
    "FaultyHeapFile",
    "corrupt_bytes",
    "faulty_reader_factory",
    "faulty_table",
    "chaos_report",
]
