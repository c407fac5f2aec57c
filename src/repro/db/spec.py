"""The typed TRAIN specification — one frozen object for every entry point.

:class:`TrainSpec` *is* the TRAIN statement: the parser builds it
(``parse_query``), ``MiniDB.train`` / ``plan`` / ``explain``, the serve job
manager and the CLI consume it unchanged, and the wire protocol carries it
as one canonical document (``to_doc``/``from_doc``).  Its fields are typed
and validated on construction, so a bad value is a :class:`SpecError`
naming the field wherever the statement came from.

``extra`` is the engine's **output** channel only: ``MiniDB.train`` writes
its plan, advisor, WHERE and executor documents there on the resolved spec
it returns as ``TrainResult.query``.  It is not a constructor argument, not
part of equality and not in the document.

Grids
-----
``TRAIN ... WITH grid = (lr = 0.1 | 0.01, l2 = 0.0 | 1e-4)`` sweeps the
cartesian product of the listed axes.  :class:`GridSpec` holds the axes in
declaration order; :meth:`GridSpec.configs` enumerates the product as
:class:`GridConfig` rows whose ``index`` is the ``grid_<N>`` model id the
leaderboard registers.  Axes may only name per-model hyperparameters that
do not change the visit order (``lr``, ``decay``, ``l2``) — that is what
makes every grid member bit-identical to training it alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

from .errors import SpecError
from .query import MODEL_NAMES, Predicate

__all__ = ["GridConfig", "GridSpec", "TrainSpec", "AGGREGATION_MODES"]

#: Aggregation modes of the parallel engine.  ``repro.parallel.aggregate``
#: defines the same set and neither module may import the other: importing
#: ``repro.parallel`` here would pull ``multiprocessing`` into every
#: ``import repro.db``, and the reverse would put all of ``repro.db`` on every
#: spawned worker's import path.  ``tests/test_spec.py`` fails if they drift.
AGGREGATION_MODES = ("sync", "epoch")

#: Hyperparameters a grid may sweep.  All three only scale the update, so
#: the CorgiPile visit order — and therefore the hopper's bit-exactness
#: guarantee — is untouched by the sweep.
GRID_AXES = ("lr", "decay", "l2")

#: Aliases accepted in grid axis names (SQL uses ``learning_rate``).
_AXIS_ALIASES = {"learning_rate": "lr"}


def _positive(name: str, value, kind=float):
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise SpecError(
            f"{name} must be a {kind.__name__}, got {value!r}"
        ) from None
    if out <= 0:
        raise SpecError(f"{name} must be positive, got {value!r}")
    return out


@dataclass(frozen=True)
class GridConfig:
    """One point of the sweep: the axis values applied to the base spec."""

    index: int
    overrides: tuple[tuple[str, float], ...]

    @property
    def model_id(self) -> str:
        return f"grid_{self.index}"

    def label(self) -> str:
        return ", ".join(f"{k}={v:g}" for k, v in self.overrides)

    def resolve(self, spec: "TrainSpec") -> dict:
        """The effective per-model hyperparameters for this grid point."""
        values = {"lr": spec.lr, "decay": spec.decay, "l2": spec.l2}
        values.update(dict(self.overrides))
        return values

    def to_doc(self) -> dict:
        return {
            "index": self.index,
            "model_id": self.model_id,
            "overrides": {k: v for k, v in self.overrides},
        }


@dataclass(frozen=True)
class GridSpec:
    """The declared axes, in declaration order."""

    axes: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self):
        if not self.axes:
            raise SpecError("grid = (...) declared no axes")
        seen = set()
        for name, values in self.axes:
            if name not in GRID_AXES:
                raise SpecError(
                    f"grid axis {name!r} is not sweepable; "
                    f"supported axes: {', '.join(GRID_AXES)}"
                )
            if name in seen:
                raise SpecError(f"grid axis {name!r} declared twice")
            seen.add(name)
            if not values:
                raise SpecError(f"grid axis {name!r} lists no values")
            for value in values:
                if name in ("lr", "decay") and value <= 0:
                    raise SpecError(
                        f"grid axis {name!r} value {value!r} must be positive"
                    )
                if name == "l2" and value < 0:
                    raise SpecError(
                        f"grid axis 'l2' value {value!r} must be >= 0"
                    )

    @property
    def n_configs(self) -> int:
        out = 1
        for _name, values in self.axes:
            out *= len(values)
        return out

    def configs(self) -> tuple[GridConfig, ...]:
        names = [name for name, _values in self.axes]
        products = itertools.product(*(values for _name, values in self.axes))
        return tuple(
            GridConfig(index=i, overrides=tuple(zip(names, combo)))
            for i, combo in enumerate(products)
        )

    def render(self) -> str:
        return ", ".join(
            f"{name} = {' | '.join(f'{v:g}' for v in values)}"
            for name, values in self.axes
        )

    def to_doc(self) -> dict:
        return {
            "axes": [
                {"name": name, "values": list(values)}
                for name, values in self.axes
            ],
            "n_configs": self.n_configs,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "GridSpec":
        return cls(
            axes=tuple(
                (str(axis["name"]), tuple(float(v) for v in axis["values"]))
                for axis in doc["axes"]
            )
        )

    @classmethod
    def from_axes(cls, axes: dict) -> "GridSpec":
        """Build from ``{"lr": [0.1, 0.01], ...}`` (the Python-API shape)."""
        normalised = []
        for name, values in axes.items():
            name = _AXIS_ALIASES.get(str(name).lower(), str(name).lower())
            if not isinstance(values, (list, tuple)):
                values = (values,)
            try:
                normalised.append((name, tuple(float(v) for v in values)))
            except (TypeError, ValueError):
                raise SpecError(
                    f"grid axis {name!r} values must be numbers, got {values!r}"
                ) from None
        return cls(axes=tuple(normalised))


@dataclass(frozen=True)
class TrainSpec:
    """The validated, canonical form of one TRAIN statement."""

    table: str
    model: str
    strategy: str = "corgipile"
    epochs: int = 20
    lr: float = 0.1
    decay: float = 0.95
    #: ``None`` keeps each model class's own default regularisation
    #: (LinearSVM defaults to 1e-4, the GLMs to 0.0) — a spec-level value
    #: overrides it uniformly.
    l2: float | None = None
    batch_size: int = 1
    block_size: int = 10 * 1024**2
    buffer_fraction: float = 0.1
    seed: int = 0
    workers: int = 1
    aggregation: str = "sync"
    device: str | None = None
    warm_start: str | None = None
    where: Predicate | None = None
    grid: GridSpec | None = None
    #: The engine's output channel (plan / advisor / where / executor docs).
    extra: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.table or not isinstance(self.table, str):
            raise SpecError(f"table must be a non-empty string, got {self.table!r}")
        if self.model not in MODEL_NAMES:
            raise SpecError(
                f"unknown model {self.model!r}; supported: {', '.join(MODEL_NAMES)}"
            )
        if not self.strategy or not isinstance(self.strategy, str):
            raise SpecError(f"strategy must be a non-empty string, got {self.strategy!r}")
        object.__setattr__(self, "epochs", _positive("epochs", self.epochs, int))
        object.__setattr__(self, "lr", _positive("lr", self.lr))
        object.__setattr__(self, "decay", _positive("decay", self.decay))
        if self.l2 is not None:
            l2 = float(self.l2)
            if l2 < 0:
                raise SpecError(f"l2 must be >= 0, got {self.l2!r}")
            object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "batch_size", _positive("batch_size", self.batch_size, int))
        object.__setattr__(self, "block_size", _positive("block_size", self.block_size, int))
        frac = _positive("buffer_fraction", self.buffer_fraction)
        if frac > 1.0:
            raise SpecError(f"buffer_fraction must be in (0, 1], got {self.buffer_fraction!r}")
        object.__setattr__(self, "buffer_fraction", frac)
        object.__setattr__(self, "workers", _positive("workers", self.workers, int))
        object.__setattr__(self, "seed", int(self.seed))
        if self.aggregation not in AGGREGATION_MODES:
            raise SpecError(
                f"unknown aggregation {self.aggregation!r}; "
                f"supported: {' | '.join(AGGREGATION_MODES)}"
            )
        if self.aggregation != "sync" and self.workers == 1:
            raise SpecError(
                f"aggregation = {self.aggregation!r} requires data-parallel workers "
                "(workers > 1); got workers = 1"
            )
        if self.warm_start is not None and not str(self.warm_start):
            raise SpecError("warm_start must be a model id or .npz path")
        if self.grid is not None:
            if self.batch_size != 1:
                raise SpecError(
                    "grid search requires per-tuple SGD (batch_size = 1); "
                    f"got batch_size = {self.batch_size}"
                )
            if self.warm_start is not None:
                raise SpecError("grid search and warm_start cannot be combined")
            if self.where is not None:
                raise SpecError(
                    "grid search over a WHERE subset is not supported yet; "
                    "materialise the subset into its own table first"
                )

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        """The canonical JSON document (wire protocol / job journal form)."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        doc["where"] = None if self.where is None else self.where.to_doc()
        doc["grid"] = None if self.grid is None else self.grid.to_doc()
        return {"version": 1, **doc}

    @classmethod
    def from_doc(cls, doc: dict) -> "TrainSpec":
        version = doc.get("version", 1)
        if version != 1:
            raise SpecError(f"unknown TrainSpec document version {version!r}")
        known = {f.name for f in fields(cls) if f.init}
        values = {k: v for k, v in doc.items() if k in known}
        if doc.get("where") is not None:
            values["where"] = Predicate.from_doc(doc["where"])
        if doc.get("grid") is not None:
            values["grid"] = GridSpec.from_doc(doc["grid"])
        return cls(**values)
