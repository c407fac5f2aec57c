"""Data-parallel in-DB training with ``WITH workers = PN``.

Trains logistic regression on a clustered table with one engine and with
PN = 2 and 4 real worker processes.  Each worker runs its own CorgiPile
pipeline over a shard of the table's blocks, and every mini-batch step
averages the workers' gradients, so the global order matches one engine
with a PN-times-larger buffer (Section 5).  Accuracy matches across PN; the
statement wall is measured with ``time.perf_counter`` on this host.

Run:  python examples/distributed_in_db.py
"""

from __future__ import annotations

import os
import time

from repro.bench import format_table
from repro.data import clustered_by_label, make_binary_dense
from repro.db import MiniDB


def main() -> None:
    dataset = make_binary_dense(4800, 16, separation=1.0, seed=0)
    train, test = dataset.split(0.9, seed=1)
    clustered = clustered_by_label(train, seed=0)

    rows = []
    # Leaving the block closes the engine's worker fleet: no child outlives it.
    with MiniDB(page_bytes=1024) as db:
        db.create_table("t", clustered)
        for workers in (1, 2, 4):
            start = time.perf_counter()
            result = db.execute(
                "SELECT * FROM t TRAIN BY lr WITH strategy = corgipile, "
                f"workers = {workers}, learning_rate = 0.5, max_epoch_num = 8, "
                "block_size = 4KB, batch_size = 64",
                test=test,
            )
            rows.append(
                {
                    "workers": workers,
                    "final_test_acc": round(result.history.final.test_score, 4),
                    "measured_wall_s": round(time.perf_counter() - start, 3),
                }
            )

    print(
        format_table(
            rows,
            title=f"data-parallel CorgiPile: accuracy and measured wall "
            f"({os.cpu_count()} cores)",
        )
    )
    print(
        "\nWorkers read disjoint block shards; averaging their gradients per "
        "batch keeps the\neffective data order equivalent to one-engine "
        "CorgiPile with a larger buffer."
    )


# The guard is required: worker processes are spawned and re-import this file.
if __name__ == "__main__":
    main()
