"""Cost/statistics-based access-path selection (``strategy = auto``).

The paper's Table 1 implies a decision procedure: if the stored order is
already (close to) random, No Shuffle is unbeatable — sequential I/O, no
buffer; if the data is clustered, a shuffling access path is needed, and
*which* one depends on the device (an HDD pays dearly for random blocks, a
byte-addressable NVM barely notices random tuples) and the buffer budget.

Two planner entry points:

* :func:`choose_access_path` — the original two-way threshold rule
  (``no_shuffle`` vs ``corgipile`` on measured ``h_D``), kept as the
  simple, device-free statistic probe;
* :func:`plan_train` — the full cost-based advisor
  (:mod:`repro.db.advisor`): charges every registered strategy through the
  device's I/O curves plus a convergence penalty and returns the complete
  :class:`~repro.db.advisor.AdvisorDecision` with its evidence table.

Both probe the table's clustering with the theory's ``h_D`` factor via
:func:`repro.db.advisor.estimate_hd` — a cheap surrogate-model sample that
touches only the logical arrays (no simulated I/O is charged), analogous
to a planner consulting table statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .advisor import AdvisorDecision, advise_strategy, estimate_hd
from .catalog import TableInfo

__all__ = [
    "AccessPathChoice",
    "choose_access_path",
    "plan_train",
    "HD_NO_SHUFFLE_THRESHOLD",
]

# Blocks whose h_D sits below this look statistically like a full shuffle;
# beyond it, the clustered-order convergence penalty of Figures 1/2 kicks in.
HD_NO_SHUFFLE_THRESHOLD = 1.5


@dataclass(frozen=True)
class AccessPathChoice:
    """The planner's decision and its evidence."""

    strategy: str
    hd: float
    threshold: float
    n_blocks: int

    def describe(self) -> str:
        relation = "<" if self.hd < self.threshold else ">="
        return (
            f"strategy={self.strategy} (h_D={self.hd:.2f} {relation} "
            f"{self.threshold} over {self.n_blocks} blocks)"
        )


def choose_access_path(
    table: TableInfo,
    block_bytes: int,
    threshold: float = HD_NO_SHUFFLE_THRESHOLD,
    max_probe_tuples: int = 20_000,
) -> AccessPathChoice:
    """Pick ``no_shuffle`` or ``corgipile`` from the table's measured h_D.

    The block granularity matches the query's ``block_size`` so the
    statistic reflects what CorgiPile's buffer would actually see.  See
    :func:`repro.db.advisor.estimate_hd` for how large tables are sampled.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must exceed 1 (h_D >= 1 by definition)")
    estimate = estimate_hd(table, block_bytes, max_probe_tuples=max_probe_tuples)
    strategy = "no_shuffle" if estimate.hd < threshold else "corgipile"
    return AccessPathChoice(
        strategy=strategy,
        hd=estimate.hd,
        threshold=threshold,
        n_blocks=estimate.n_blocks,
    )


def plan_train(
    table: TableInfo,
    spec,
    device,
    compute=None,
    max_probe_tuples: int = 20_000,
    history=None,
) -> AdvisorDecision:
    """Resolve ``strategy = auto`` for one TRAIN statement via the cost advisor.

    ``spec`` is the statement's :class:`~repro.db.spec.TrainSpec`; its
    ``block_size``, ``buffer_fraction`` and ``epochs`` parameterise the cost
    model.  ``device`` is the device the statement is planned for —
    :func:`repro.db.plan.physical_plan` has already applied a
    ``WITH device = 'nvm'`` override, so the same statement plans
    differently on HDD and NVM.  ``history`` forwards earlier per-epoch
    wall observations for this table so the advisor can fit κ (see
    :func:`repro.db.advisor.learn_kappa`).
    """
    return advise_strategy(
        table,
        device,
        block_bytes=spec.block_size,
        buffer_fraction=spec.buffer_fraction,
        epochs=spec.epochs,
        compute=compute,
        max_probe_tuples=max_probe_tuples,
        history=history,
    )
