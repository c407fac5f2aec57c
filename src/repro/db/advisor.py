"""Physical-design + access-path advisor.

Two layers live here:

1. **Physical design** (the original Section 7.3.4 guidance): given a device
   model and table statistics, recommend the smallest block size reaching a
   target fraction of sequential bandwidth and a buffer sized for good
   tuple-level mixing (:func:`recommend_block_size`, :func:`recommend_buffer`,
   :func:`advise`).  Purely analytic — runs at ``CREATE TABLE`` time.

2. **Plan-time strategy selection** (the cost-based advisor): per ``TRAIN``
   statement, estimate the clustering factor ``h_D`` from a cheap sample of
   the stored table (:func:`estimate_hd`), charge every registered shuffle
   strategy through the device's I/O curves, fold in a convergence penalty
   proportional to the clustering each strategy leaves behind, and pick the
   cheapest total (:func:`advise_strategy`).  The decision — chosen
   strategy, per-strategy cost table, measured ``h_D`` — is surfaced in
   ``EXPLAIN``, ``repro.obs``, and the serve job journal.

The convergence penalty model: Theorem 1's leading term scales with the
block-wise variance factor ``h_D``, so a strategy whose SGD stream still
looks clustered needs proportionally more epochs to reach the same loss.
Each strategy removes a fraction of the clustering —

* mixing ``k`` buffered blocks' tuples averages ``k`` block means, cutting
  the residual block variance to ``~1/k`` (CorgiPile);
* Corgi²'s offline re-grouping pre-mixes ``g`` blocks per new block, so the
  online buffer sees ``~1/(g·k)``;
* in-block schemes (reshuffle/reversal) perturb only within a block, so
  block means survive and most of the clustering remains;
* a full shuffle (offline copy or per-epoch random tuple access) removes it
  entirely.

We charge ``epochs · epoch_io · (1 + κ·(h_eff − 1))`` with
``κ = PENALTY_EPOCHS_PER_HD`` extra epochs per unit of residual ``h``:
an analytic stand-in for "epochs to target loss" that the statistical test
suite (``tests/test_shuffle_quality.py``) and ``benchmarks/bench_advisor.py``
validate end to end against real SGD runs.  κ is a constant, not fitted from
earlier runs' walls: a per-epoch wall does not depend on ``h_eff``, so the
decision is a function of the statement and the table alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..shuffle.base import EXTERNAL_SORT_PASSES
from ..storage.iomodel import DeviceModel

__all__ = [
    "PhysicalDesign",
    "recommend_block_size",
    "recommend_buffer",
    "advise",
    "HdEstimate",
    "StrategyCost",
    "AdvisorDecision",
    "estimate_hd",
    "advise_from_stats",
    "advise_strategy",
    "ADVISOR_CANDIDATES",
    "PENALTY_EPOCHS_PER_HD",
]

# Defaults mirroring the paper's setup: ~90 % of sequential bandwidth is
# "high-enough", buffers of ~10 % of the data with at least 8 blocks per
# fill mix clustered data well (Figures 14a and our ablations).
DEFAULT_THROUGHPUT_FRACTION = 0.9
DEFAULT_BUFFER_FRACTION = 0.1
MIN_BLOCKS_PER_BUFFER = 8

# ---------------------------------------------------------------------------
# Strategy-selection constants
# ---------------------------------------------------------------------------

#: Every strategy the plan-time advisor charges, in tie-break order
#: (cheapest memory footprint first — a tie on estimated cost resolves to
#: the simplest plan).
ADVISOR_CANDIDATES = (
    "no_shuffle",
    "block_reversal",
    "block_reshuffle",
    "corgipile",
    "corgi2",
    "shuffle_once",
    "random_access",
)

#: κ — extra epochs (as a fraction of the requested epochs) charged per unit
#: of residual clustering ``h_eff − 1``.  Calibrated against the clustered
#: GLM convergence sweeps: one extra unit of h_D costs roughly a third of an
#: epoch of progress per epoch trained.
PENALTY_EPOCHS_PER_HD = 0.3

#: Fraction of the clustering (``h_D − 1``) each strategy leaves in the SGD
#: stream.  See the module docstring for the derivations; buffered
#: strategies are computed from the buffer size at plan time.
_RESIDUAL_BLOCK_REVERSAL = 0.9
_RESIDUAL_BLOCK_RESHUFFLE = 0.8


@dataclass(frozen=True)
class PhysicalDesign:
    """The advisor's output."""

    block_bytes: int
    buffer_bytes: int
    buffer_fraction: float
    blocks_per_buffer: int
    expected_random_throughput_fraction: float

    def describe(self) -> str:
        return (
            f"block={self.block_bytes / 1024:.0f}KB "
            f"({self.expected_random_throughput_fraction:.0%} of sequential bw), "
            f"buffer={self.buffer_bytes / 1024:.0f}KB "
            f"({self.buffer_fraction:.1%} of table, "
            f"{self.blocks_per_buffer} blocks/fill)"
        )


def recommend_block_size(
    device: DeviceModel,
    page_bytes: int,
    throughput_fraction: float = DEFAULT_THROUGHPUT_FRACTION,
    max_block_bytes: int = 1 << 30,
) -> int:
    """Smallest page-aligned block reaching the target random throughput.

    Solves ``block / (t_lat + block/bw) >= fraction * bw`` for the block
    size: ``block >= fraction/(1-fraction) * t_lat * bw``, rounded up to a
    whole number of pages.  The ceiling is taken on the *float* requirement:
    truncating first would under-size the block by one page whenever the
    requirement is fractionally above a page multiple, silently missing the
    throughput target.
    """
    if not 0.0 < throughput_fraction < 1.0:
        raise ValueError("throughput_fraction must be in (0, 1)")
    if page_bytes <= 0:
        raise ValueError("page_bytes must be positive")
    needed = (
        throughput_fraction
        / (1.0 - throughput_fraction)
        * device.access_latency_s
        * device.bandwidth_bytes_per_s
    )
    pages = max(1, math.ceil(needed / page_bytes))
    block = pages * page_bytes
    if block > max_block_bytes:
        raise ValueError(
            f"device needs {block} byte blocks to reach "
            f"{throughput_fraction:.0%} of bandwidth (cap {max_block_bytes})"
        )
    return block


def recommend_buffer(
    table_bytes: float,
    block_bytes: int,
    memory_budget_bytes: float | None = None,
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
) -> tuple[int, int]:
    """Buffer bytes and blocks-per-fill under the paper's sizing rules.

    Starts from ``buffer_fraction`` of the table, raises it to hold at
    least :data:`MIN_BLOCKS_PER_BUFFER` blocks (tuple-level mixing needs
    several blocks per fill — our block-size ablation), and caps it at the
    memory budget and the table size.  Returns ``(buffer_bytes, blocks)``.
    """
    if table_bytes <= 0 or block_bytes <= 0:
        raise ValueError("table_bytes and block_bytes must be positive")
    target = buffer_fraction * table_bytes
    target = max(target, MIN_BLOCKS_PER_BUFFER * block_bytes)
    target = min(target, table_bytes)
    if memory_budget_bytes is not None:
        if memory_budget_bytes < block_bytes:
            raise ValueError("memory budget smaller than a single block")
        target = min(target, memory_budget_bytes)
    blocks = max(1, int(target // block_bytes))
    return blocks * block_bytes, blocks


def advise(
    device: DeviceModel,
    table_bytes: float,
    page_bytes: int,
    memory_budget_bytes: float | None = None,
    throughput_fraction: float = DEFAULT_THROUGHPUT_FRACTION,
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
) -> PhysicalDesign:
    """Full physical-design recommendation for one table on one device."""
    block = recommend_block_size(device, page_bytes, throughput_fraction)
    if block > table_bytes:
        # Tiny table: a single block would swallow it; fall back to
        # table_bytes / MIN_BLOCKS so CorgiPile still has blocks to shuffle.
        pages = max(1, int(table_bytes / MIN_BLOCKS_PER_BUFFER) // page_bytes)
        block = max(page_bytes, pages * page_bytes)
    buffer_bytes, blocks = recommend_buffer(
        table_bytes, block, memory_budget_bytes, buffer_fraction
    )
    return PhysicalDesign(
        block_bytes=block,
        buffer_bytes=buffer_bytes,
        buffer_fraction=buffer_bytes / table_bytes,
        blocks_per_buffer=blocks,
        expected_random_throughput_fraction=(
            device.random_throughput(block) / device.bandwidth_bytes_per_s
        ),
    )


# ---------------------------------------------------------------------------
# h_D estimation (the plan-time sample probe)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HdEstimate:
    """A sampled clustering-factor measurement.

    ``n_sampled == 0`` marks an estimate that was *given* rather than
    measured (the regression tests feed exact values through
    :func:`advise_from_stats`).
    """

    hd: float
    n_sampled: int
    n_tuples: int
    tuples_per_block: int
    n_blocks: int

    def describe(self) -> str:
        source = (
            f"sampled {self.n_sampled}/{self.n_tuples} tuples"
            if self.n_sampled
            else "given"
        )
        return (
            f"h_D={self.hd:.2f} over {self.n_blocks} blocks of "
            f"{self.tuples_per_block} tuples ({source})"
        )

    def to_doc(self) -> dict:
        return {
            "hd": round(float(self.hd), 4),
            "n_sampled": int(self.n_sampled),
            "n_tuples": int(self.n_tuples),
            "tuples_per_block": int(self.tuples_per_block),
            "n_blocks": int(self.n_blocks),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "HdEstimate":
        return cls(
            hd=float(doc["hd"]),
            n_sampled=int(doc["n_sampled"]),
            n_tuples=int(doc["n_tuples"]),
            tuples_per_block=int(doc["tuples_per_block"]),
            n_blocks=int(doc["n_blocks"]),
        )


def _probe_model(dataset):
    """A cheap surrogate whose gradients expose label/feature clustering.

    A freshly initialised GLM probe is enough: at the zero point the
    per-example gradients are label/feature-driven, which is exactly what
    block clustering skews.
    """
    from ..ml.models.linear import LinearRegression, LogisticRegression
    from ..ml.models.softmax import SoftmaxRegression

    if dataset.task == "binary":
        return LogisticRegression(dataset.n_features)
    if dataset.task == "multiclass":
        return SoftmaxRegression(dataset.n_features, dataset.n_classes)
    return LinearRegression(dataset.n_features)


def estimate_hd(table, block_bytes: int, max_probe_tuples: int = 20_000) -> HdEstimate:
    """Sample the table's clustering factor at the query's block granularity.

    Tables larger than ``max_probe_tuples`` are probed on evenly spaced
    *contiguous* chunks: each chunk preserves the within-block structure
    (a random tuple sample would destroy the clustering being measured),
    while spacing the chunks across the table captures its global label
    drift — a prefix alone would be single-class on clustered tables and
    look deceptively uniform.  On a columnar table this touches only the
    label/feature arrays already resident in the catalog — no simulated
    I/O is charged, exactly like a planner consulting table statistics.
    """
    from ..data.dataset import BlockLayout
    from ..theory.hd import hd_factor

    dataset = table.dataset
    tuples_per_block = max(1, round(block_bytes / max(1.0, table.tuple_bytes)))
    probe = dataset
    if dataset.n_tuples > max_probe_tuples:
        chunk = max(tuples_per_block, max_probe_tuples // 20)
        n_chunks = max(2, max_probe_tuples // chunk)
        starts = np.linspace(0, dataset.n_tuples - chunk, n_chunks).astype(np.int64)
        indices = np.concatenate([np.arange(s, s + chunk) for s in starts])
        probe = dataset.subset(indices, suffix="probe")
    n_probe = probe.n_tuples
    probe_block = min(tuples_per_block, max(1, n_probe // 2))
    layout = BlockLayout(n_probe, probe_block)
    hd = hd_factor(_probe_model(probe), probe, layout)
    return HdEstimate(
        hd=float(hd),
        n_sampled=n_probe,
        n_tuples=dataset.n_tuples,
        tuples_per_block=tuples_per_block,
        n_blocks=layout.n_blocks,
    )


# ---------------------------------------------------------------------------
# Cost-based strategy selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyCost:
    """One candidate's charged cost for a TRAIN statement."""

    strategy: str
    setup_s: float
    epoch_io_s: float
    effective_hd: float
    epoch_multiplier: float
    total_s: float

    def describe(self) -> str:
        return (
            f"{self.strategy:<16} total={self.total_s:.4g}s "
            f"(setup={self.setup_s:.4g}s + epoch-io={self.epoch_io_s:.4g}s "
            f"x{self.epoch_multiplier:.2f}, h_eff={self.effective_hd:.2f})"
        )

    def to_doc(self) -> dict:
        return {
            "strategy": self.strategy,
            "setup_s": float(self.setup_s),
            "epoch_io_s": float(self.epoch_io_s),
            "effective_hd": round(float(self.effective_hd), 4),
            "epoch_multiplier": round(float(self.epoch_multiplier), 4),
            "total_s": float(self.total_s),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "StrategyCost":
        return cls(
            strategy=str(doc["strategy"]),
            setup_s=float(doc["setup_s"]),
            epoch_io_s=float(doc["epoch_io_s"]),
            effective_hd=float(doc["effective_hd"]),
            epoch_multiplier=float(doc["epoch_multiplier"]),
            total_s=float(doc["total_s"]),
        )


@dataclass(frozen=True)
class AdvisorDecision:
    """The plan-time advisor's choice and its full evidence table."""

    strategy: str
    device: str
    epochs: int
    buffer_fraction: float
    block_bytes: int
    hd: HdEstimate
    costs: tuple[StrategyCost, ...]

    @property
    def chosen(self) -> StrategyCost:
        for cost in self.costs:
            if cost.strategy == self.strategy:
                return cost
        raise ValueError(f"decision names unknown strategy {self.strategy!r}")

    def describe(self) -> str:
        best = self.chosen
        return (
            f"strategy={self.strategy} ({self.hd.describe()}, device={self.device}, "
            f"est {best.total_s:.4g}s vs next "
            f"{self._runner_up_total():.4g}s over {self.epochs} epochs)"
        )

    def _runner_up_total(self) -> float:
        others = [c.total_s for c in self.costs if c.strategy != self.strategy]
        return min(others) if others else float("nan")

    def render(self) -> str:
        """The EXPLAIN block: one line per candidate, chosen first-marked."""
        lines = [
            f"Advisor (device={self.device}, {self.hd.describe()}, "
            f"epochs={self.epochs}, buffer={self.buffer_fraction:.1%})"
        ]
        for cost in sorted(self.costs, key=lambda c: c.total_s):
            marker = "=> " if cost.strategy == self.strategy else "   "
            lines.append(f"  {marker}{cost.describe()}")
        return "\n".join(lines)

    def to_doc(self) -> dict:
        return {
            "strategy": self.strategy,
            "device": self.device,
            "epochs": int(self.epochs),
            "buffer_fraction": float(self.buffer_fraction),
            "block_bytes": int(self.block_bytes),
            "hd": self.hd.to_doc(),
            "costs": [c.to_doc() for c in self.costs],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "AdvisorDecision":
        # Keys this class does not write (a journalled ``"kappa"``) are ignored.
        return cls(
            strategy=str(doc["strategy"]),
            device=str(doc["device"]),
            epochs=int(doc["epochs"]),
            buffer_fraction=float(doc["buffer_fraction"]),
            block_bytes=int(doc["block_bytes"]),
            hd=HdEstimate.from_doc(doc["hd"]),
            costs=tuple(StrategyCost.from_doc(c) for c in doc["costs"]),
        )


def _residual_clustering(strategy: str, buffer_blocks: int, group_blocks: int) -> float:
    """Fraction of ``h_D − 1`` the strategy leaves in the SGD stream."""
    if strategy == "no_shuffle":
        return 1.0
    if strategy == "block_reversal":
        return _RESIDUAL_BLOCK_REVERSAL
    if strategy == "block_reshuffle":
        return _RESIDUAL_BLOCK_RESHUFFLE
    if strategy in ("corgipile", "corgipile_single_buffer"):
        return 1.0 / buffer_blocks
    if strategy == "corgi2":
        return 1.0 / (group_blocks * buffer_blocks)
    if strategy in ("shuffle_once", "epoch_shuffle", "random_access"):
        return 0.0
    raise KeyError(f"no residual-clustering model for strategy {strategy!r}")


def advise_from_stats(
    *,
    n_tuples: int,
    tuple_bytes: float,
    hd: float | HdEstimate,
    device: DeviceModel,
    block_bytes: int,
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
    epochs: int = 20,
    compute=None,
    candidates: tuple[str, ...] = ADVISOR_CANDIDATES,
) -> AdvisorDecision:
    """Cost every candidate from pure table statistics and pick the cheapest.

    The numeric core of :func:`advise_strategy`, separated so decision
    tables can be regression-pinned on exact ``(h_D, device, buffer)``
    grid points without building datasets.  ``compute`` is an optional
    :class:`~repro.db.timing.ComputeProfile` used to charge the
    ``n·log n`` sort CPU of the Shuffle-Once external sort.
    """
    if n_tuples <= 0 or tuple_bytes <= 0 or block_bytes <= 0:
        raise ValueError("n_tuples, tuple_bytes and block_bytes must be positive")
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    if not 0.0 < buffer_fraction <= 1.0:
        raise ValueError("buffer_fraction must be in (0, 1]")
    if not candidates:
        raise ValueError("candidates must not be empty")

    tuples_per_block = max(1, round(block_bytes / tuple_bytes))
    n_blocks = max(1, -(-n_tuples // tuples_per_block))
    eff_block_bytes = min(tuples_per_block, n_tuples) * tuple_bytes
    table_bytes = n_tuples * tuple_bytes
    buffer_blocks = max(1, round(buffer_fraction * n_blocks))
    group_blocks = buffer_blocks  # Corgi² default: offline group == buffer

    if isinstance(hd, HdEstimate):
        estimate = hd
    else:
        estimate = HdEstimate(
            hd=float(hd),
            n_sampled=0,
            n_tuples=n_tuples,
            tuples_per_block=tuples_per_block,
            n_blocks=n_blocks,
        )

    seq_epoch = device.sequential_time(table_bytes)
    rand_block_epoch = device.random_time(eff_block_bytes, n_blocks)
    rand_tuple_epoch = device.random_time(tuple_bytes, n_tuples)

    setup_by_strategy = {
        "no_shuffle": 0.0,
        "block_reversal": 0.0,
        "block_reshuffle": 0.0,
        "corgipile": 0.0,
        "corgipile_single_buffer": 0.0,
        # Offline pass: one random-block read of the table + one sequential
        # write of the re-grouped copy.
        "corgi2": rand_block_epoch + device.sequential_time(table_bytes),
        # External sort (alternating sequential passes) + the n·log2 n
        # comparison/copy CPU of ORDER BY RANDOM() when a profile is given.
        "shuffle_once": EXTERNAL_SORT_PASSES * seq_epoch
        + (
            0.25 * n_tuples * max(1.0, math.log2(n_tuples)) * compute.per_tuple_s
            if compute is not None
            else 0.0
        ),
        "random_access": 0.0,
    }
    epoch_io_by_strategy = {
        "no_shuffle": seq_epoch,
        "block_reversal": rand_block_epoch,
        "block_reshuffle": rand_block_epoch,
        "corgipile": rand_block_epoch,
        "corgipile_single_buffer": rand_block_epoch,
        "corgi2": rand_block_epoch,
        "shuffle_once": seq_epoch,
        "random_access": rand_tuple_epoch,
    }

    costs: list[StrategyCost] = []
    for name in candidates:
        if name not in epoch_io_by_strategy:
            raise KeyError(
                f"advisor has no cost model for strategy {name!r}; "
                f"known: {', '.join(sorted(epoch_io_by_strategy))}"
            )
        residual = _residual_clustering(name, buffer_blocks, group_blocks)
        h_eff = 1.0 + max(0.0, estimate.hd - 1.0) * residual
        multiplier = 1.0 + PENALTY_EPOCHS_PER_HD * (h_eff - 1.0)
        setup = setup_by_strategy[name]
        epoch_io = epoch_io_by_strategy[name]
        costs.append(
            StrategyCost(
                strategy=name,
                setup_s=setup,
                epoch_io_s=epoch_io,
                effective_hd=h_eff,
                epoch_multiplier=multiplier,
                total_s=setup + epochs * epoch_io * multiplier,
            )
        )
    # Cheapest total wins; exact ties resolve to the earlier (simpler,
    # smaller-memory) candidate.
    best = min(enumerate(costs), key=lambda item: (item[1].total_s, item[0]))[1]
    return AdvisorDecision(
        strategy=best.strategy,
        device=device.name,
        epochs=int(epochs),
        buffer_fraction=float(buffer_fraction),
        block_bytes=int(block_bytes),
        hd=estimate,
        costs=tuple(costs),
    )


def advise_strategy(
    table,
    device: DeviceModel,
    *,
    block_bytes: int,
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
    epochs: int = 20,
    compute=None,
    hd: float | None = None,
    max_probe_tuples: int = 20_000,
    candidates: tuple[str, ...] = ADVISOR_CANDIDATES,
) -> AdvisorDecision:
    """The plan-time step: sample ``h_D``, cost the candidates, decide.

    ``table`` is a catalog :class:`~repro.db.catalog.TableInfo`.  Pass
    ``hd`` to skip the sample probe (tests, or a cached statistic).  The
    decision is also counted into ``repro.obs`` (``advisor.choice.*`` and
    the measured ``advisor.hd`` gauge) so the serve layer's live stats see
    every plan-time choice.
    """
    from .. import obs

    estimate = (
        estimate_hd(table, block_bytes, max_probe_tuples=max_probe_tuples)
        if hd is None
        else hd
    )
    decision = advise_from_stats(
        n_tuples=table.n_tuples,
        tuple_bytes=table.tuple_bytes,
        hd=estimate,
        device=device,
        block_bytes=block_bytes,
        buffer_fraction=buffer_fraction,
        epochs=epochs,
        compute=compute,
        candidates=candidates,
    )
    obs.inc(f"advisor.choice.{decision.strategy}")
    obs.set_max("advisor.hd", decision.hd.hd)
    return decision
