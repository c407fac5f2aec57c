"""Distributed in-DB training on the segmented engine.

Distributes a clustered table across four Greenplum-style segments
(block-granular round-robin), trains logistic regression with per-segment
CorgiPile pipelines and coordinator-side gradient averaging, and compares
the result against the single-engine run — the Section 8 "scalable ML for
distributed data systems" direction, built out.

Run:  python examples/distributed_in_db.py
"""

from __future__ import annotations

from repro.bench import format_table
from repro.data import clustered_by_label, make_binary_dense
from repro.db import MiniDB, SegmentedMiniDB, TrainSpec
from repro.storage import SSD_SCALED


def main() -> None:
    dataset = make_binary_dense(4800, 16, separation=1.0, seed=0)
    train, test = dataset.split(0.9, seed=1)
    clustered = clustered_by_label(train, seed=0)

    spec = TrainSpec(
        table="t",
        model="lr",
        lr=0.5,
        epochs=8,
        block_size=4096,
        batch_size=64,
        strategy="corgipile",
    )

    rows = []
    single = MiniDB(device=SSD_SCALED, page_bytes=1024)
    single.create_table("t", clustered)
    local = single.train(spec, test=test)
    rows.append(
        {
            "engine": "single",
            "segments": 1,
            "final_test_acc": round(local.history.final.test_score, 4),
            "wall_s": round(local.timeline.total_time_s, 5),
        }
    )

    for n_segments in (2, 4, 8):
        db = SegmentedMiniDB(n_segments, device=SSD_SCALED)
        db.create_table("t", clustered, distribution_block=40)
        result = db.train(spec, test=test)
        rows.append(
            {
                "engine": "segmented",
                "segments": n_segments,
                "final_test_acc": round(result.history.final.test_score, 4),
                "wall_s": round(result.timeline.total_time_s, 5),
            }
        )

    print(format_table(rows, title="distributed CorgiPile: accuracy and simulated time"))
    print(
        "\nSegments hold disjoint random block sets; gradient averaging per "
        "batch keeps the\neffective data order equivalent to single-engine "
        "CorgiPile with a larger buffer."
    )


if __name__ == "__main__":
    main()
