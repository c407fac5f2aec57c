"""The simulated clock is charged the same reads, in the same order.

Every heap read of a TRAIN ends in ``RuntimeContext.charge_device_read`` /
``charge_memory_read``: the device/memory byte split of the pages read, and
how many times the device head was positioned.  This file pins that charge
sequence per case — the ordered call arguments, hashed — in
``tests/goldens/read_charges.json``, recorded from the code as it stood
before the operators' read pricing was folded into one helper
(``PYTHONPATH=<that checkout>/src python tests/test_read_charges.py
--regen``).  Never regenerate it from current code.

Each argument is recorded by value (``float.hex`` of the byte count, the
``random`` flag, the positioning ``count``): the device model is pure
arithmetic over those values, so an ``int`` and a ``float`` of one value
price alike.

The matrix: row and columnar layouts × the strategies whose access paths
charge differently × a table-resident pool and a 4-page pool;
``TRAIN … WHERE`` on both fetch paths; and a row table after DELETEs that
empty pages.  An emptied page still holds its dead tuples' bytes (a page
is compacted only to take a new tuple), so it is charged as a full one.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_binary_dense
from repro.db import MiniDB
from repro.db.plan import RID_STRATEGIES
from repro.db.query import parse_predicate
from repro.db.spec import TrainSpec
from repro.db.timing import RuntimeContext

GOLDENS = Path(__file__).parent / "goldens" / "read_charges.json"

STRATEGIES = (
    "corgipile",
    "block_only",
    "block_reshuffle",
    "no_shuffle",
    "shuffle_once",
    "epoch_shuffle",
    "random_access",
    "sliding_window",
    "mrs",
)
POOLS = {"resident": 1 << 30, "pool4": 4}


def _dataset(n_tuples: int):
    """A small dense table whose ``f0`` ascends with heap position, so a
    range on it is one contiguous page run."""
    dataset = make_binary_dense(n_tuples, 6, separation=1.2, seed=5)
    dataset.X[:, 0] = np.linspace(0.0, 1.0, dataset.n_tuples)
    return dataset


#: name -> (strategy, layout, pool, table rows, WHERE predicate, index
#: column, DELETE predicates run before the TRAIN, expected fetch path)
CASES: dict[str, tuple] = {}
for _layout in ("row", "columnar"):
    for _strategy in STRATEGIES:
        if _layout == "columnar" and _strategy in RID_STRATEGIES:
            continue  # RID access paths read row heaps only
        for _pool in POOLS:
            CASES[f"{_strategy}-{_layout}-{_pool}"] = (
                _strategy, _layout, _pool, 240, None, None, (), None
            )
for _pool in POOLS:
    CASES[f"where-index-{_pool}"] = ("corgipile", "row", _pool, 240, "f0 >= 0.8", "f0", (), "index")
    CASES[f"where-scan-{_pool}"] = ("corgipile", "row", _pool, 240, "f0 >= 0.3", None, (), "scan")
# Emptied pages at the head of the heap and inside the WHERE range, which
# the index fetch then reads as two runs.  The table is large enough for
# two positionings to beat one scan.
_DELETES = ("f0 < 0.05", "f0 > 0.94 AND f0 < 0.95")
for _strategy in ("corgipile", "no_shuffle", "random_access"):
    CASES[f"deleted-{_strategy}-pool4"] = (
        _strategy, "row", "pool4", 3000, None, None, _DELETES, None
    )
CASES["deleted-where-index-pool4"] = (
    "corgipile", "row", "pool4", 3000, "f0 >= 0.9", "f0", _DELETES, "index"
)


def observe(case) -> dict:
    """Run one 2-epoch TRAIN and hash the clock's charge calls in order."""
    strategy, layout, pool, n_tuples, where, index, deletes, fetch = case
    db = MiniDB(page_bytes=512, pool_pages=POOLS[pool])
    db.create_table("t", _dataset(n_tuples), layout=layout)
    if index is not None:
        db.execute(f"CREATE INDEX ix ON t ({index})")
    for predicate in deletes:
        db.execute(f"DELETE FROM t WHERE {predicate}")
    if deletes:
        pages = db.catalog.get("t").heap.pages
        assert any(page.n_tuples == 0 for page in pages)  # an emptied page
    spec = TrainSpec(
        table="t", model="svm", strategy=strategy, epochs=2, lr=0.05, decay=0.9, seed=3,
        block_size=1024, buffer_fraction=0.2,
        where=parse_predicate(where) if where else None,
    )
    calls: list[tuple] = []
    device_read = RuntimeContext.charge_device_read
    memory_read = RuntimeContext.charge_memory_read

    def charge_device_read(self, n_bytes, random, count=1):
        calls.append(("device", float(n_bytes).hex(), bool(random), int(count)))
        device_read(self, n_bytes, random, count)

    def charge_memory_read(self, n_bytes):
        calls.append(("memory", float(n_bytes).hex()))
        memory_read(self, n_bytes)

    RuntimeContext.charge_device_read = charge_device_read
    RuntimeContext.charge_memory_read = charge_memory_read
    try:
        result = db.train(spec)
    finally:
        RuntimeContext.charge_device_read = device_read
        RuntimeContext.charge_memory_read = memory_read
    got_fetch = (result.query.extra.get("where") or {}).get("fetch")
    assert got_fetch == fetch
    return {
        "n_calls": len(calls),
        "calls_sha256": hashlib.sha256(json.dumps(calls).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def test_the_goldens_cover_the_matrix(goldens):
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_charge_sequence_equals_the_golden(name, goldens):
    assert observe(CASES[name]) == goldens[name]


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_read_charges.py --regen")
    GOLDENS.write_text(
        json.dumps({name: observe(CASES[name]) for name in sorted(CASES)}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {GOLDENS}")
