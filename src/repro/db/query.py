"""The SQL-ish query interface (Section 6):

    SELECT * FROM table TRAIN BY model WITH param = value, ...
    SELECT * FROM table PREDICT BY model_id
    SELECT * FROM table [LIMIT n]

Supported model names: ``lr`` (logistic regression), ``svm``, ``linreg``
(linear regression), ``softmax``.  Parameters mirror the paper's examples
(``learning_rate = 0.1``, ``max_epoch_num = 20``, ``block_size = 10MB``)
plus the knobs the experiments sweep (``buffer_fraction``, ``batch_size``,
``strategy``, ``decay``, ``seed``; ``strategy = corgipile_single_buffer``
is single buffering) and the Section 5 parallelism knobs (``workers``,
``aggregation``).
"""

from __future__ import annotations

import re
import functools
import typing
from dataclasses import dataclass, fields

import numpy as np

from ..data.sparse import SparseMatrix, SparseRow
from .errors import ParseError

__all__ = [
    "Comparison",
    "Predicate",
    "PredictQuery",
    "EvaluateQuery",
    "ExplainQuery",
    "SelectQuery",
    "InsertQuery",
    "UpdateQuery",
    "DeleteQuery",
    "CreateIndexQuery",
    "DropIndexQuery",
    "column_value",
    "column_values",
    "parse_predicate",
    "parse_query",
    "parse_size",
]

_SIZE_RE = re.compile(r"^(\d+(?:\.\d+)?)\s*(B|KB|MB|GB)$", re.IGNORECASE)
_TRAIN_RE = re.compile(
    r"^\s*SELECT\s+\*\s+FROM\s+(\w+)(?:\s+WHERE\s+(.*?))?\s+TRAIN\s+BY\s+(\w+)"
    r"(?:\s+WITH\s+(.*))?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_PREDICT_RE = re.compile(
    r"^\s*SELECT\s+\*\s+FROM\s+(\w+)\s+PREDICT\s+BY\s+(\w+)\s*$",
    re.IGNORECASE,
)
_EVALUATE_RE = re.compile(
    r"^\s*SELECT\s+\*\s+FROM\s+(\w+)\s+EVALUATE\s+BY\s+(\w+)\s*$",
    re.IGNORECASE,
)
_SELECT_RE = re.compile(
    r"^\s*SELECT\s+(\*|\w+(?:\s*,\s*\w+)*)\s+FROM\s+(\w+)"
    r"(?:\s+WHERE\s+(.*?))?\s*(?:LIMIT\s+(\d+))?\s*$",
    re.IGNORECASE,
)
_FEATURE_COL_RE = re.compile(r"^f(\d+)$")
_CREATE_INDEX_RE = re.compile(
    r"^\s*CREATE\s+INDEX\s+(\w+)\s+ON\s+(\w+)\s*\(\s*(\w+)\s*\)\s*$",
    re.IGNORECASE,
)
_DROP_INDEX_RE = re.compile(
    r"^\s*DROP\s+INDEX\s+(\w+)\s+ON\s+(\w+)\s*$",
    re.IGNORECASE,
)
_INSERT_RE = re.compile(
    r"^\s*INSERT\s+INTO\s+(\w+)\s+VALUES\s+(.*)$",
    re.IGNORECASE | re.DOTALL,
)
_DELETE_RE = re.compile(
    r"^\s*DELETE\s+FROM\s+(\w+)\s+WHERE\s+(.*)$",
    re.IGNORECASE | re.DOTALL,
)
_UPDATE_RE = re.compile(
    r"^\s*UPDATE\s+(\w+)\s+SET\s+(.*?)\s+WHERE\s+(.*)$",
    re.IGNORECASE | re.DOTALL,
)
_COMPARISON_RE = re.compile(
    r"^\s*(\w+)\s*(<=|>=|!=|=|<|>)\s*([-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*$"
)
_ROW_LITERAL_RE = re.compile(r"\(([^()]*)\)")

_COMPARE_FNS = {
    "=": lambda v, c: v == c,
    "!=": lambda v, c: v != c,
    "<": lambda v, c: v < c,
    "<=": lambda v, c: v <= c,
    ">": lambda v, c: v > c,
    ">=": lambda v, c: v >= c,
}

_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3}

MODEL_NAMES = ("lr", "svm", "linreg", "softmax")


def parse_size(text: str) -> int:
    """``"10MB" -> 10 * 1024**2``; bare integers are bytes."""
    text = text.strip()
    match = _SIZE_RE.match(text)
    if match:
        return int(float(match.group(1)) * _UNITS[match.group(2).upper()])
    if text.isdigit():
        return int(text)
    raise ParseError(f"cannot parse size {text!r}")


@dataclass(frozen=True)
class Comparison:
    """One ``column op value`` term; columns are ``label`` or ``f<k>``."""

    column: str
    op: str
    value: float

    def __post_init__(self):
        if self.op not in _COMPARE_FNS:
            raise ParseError(f"unknown comparison operator {self.op!r}")
        if self.column != "label" and not _FEATURE_COL_RE.match(self.column):
            raise ParseError(
                f"unknown column {self.column!r} in predicate; "
                "expected label or f<k>"
            )

    def matches(self, value: float) -> bool:
        return _COMPARE_FNS[self.op](value, self.value)

    def render(self) -> str:
        return f"{self.column} {self.op} {self.value:g}"

    def to_doc(self) -> dict:
        return {"column": self.column, "op": self.op, "value": self.value}

    @classmethod
    def from_doc(cls, doc: dict) -> "Comparison":
        return cls(doc["column"], doc["op"], float(doc["value"]))


@dataclass(frozen=True)
class Predicate:
    """A conjunction of comparisons (``WHERE a AND b AND ...``)."""

    terms: tuple[Comparison, ...]

    def columns(self) -> tuple[str, ...]:
        seen: list[str] = []
        for term in self.terms:
            if term.column not in seen:
                seen.append(term.column)
        return tuple(seen)

    def render(self) -> str:
        return " AND ".join(term.render() for term in self.terms)

    def to_doc(self) -> dict:
        return {"terms": [term.to_doc() for term in self.terms]}

    @classmethod
    def from_doc(cls, doc: dict) -> "Predicate":
        return cls(tuple(Comparison.from_doc(t) for t in doc["terms"]))

    # ------------------------------------------------------------------
    def matches(self, label: float, features) -> bool:
        """Row-at-a-time evaluation (``features``: dense vector or SparseRow)."""
        return all(
            term.matches(column_value(term.column, label, features))
            for term in self.terms
        )

    def mask(self, X, y, rows=None) -> np.ndarray:
        """Vectorized evaluation over a whole table → boolean row mask
        (over ``rows`` of it only, when given: one entry per row)."""
        out = np.ones(len(y) if rows is None else len(rows), dtype=bool)
        for term in self.terms:
            out &= _COMPARE_FNS[term.op](column_values(term.column, X, y, rows), term.value)
        return out

    def interval_for(self, column: str):
        """The tightest ``(lo, hi, lo_incl, hi_incl)`` the terms on ``column``
        imply, or ``None`` when they give no usable bound (no terms, or only
        ``!=``).  The full predicate must still be re-applied as a residual
        filter — the interval only narrows an index scan.
        """
        lo = hi = None
        lo_incl = hi_incl = True
        bounded = False
        for term in self.terms:
            if term.column != column:
                continue
            if term.op == "=":
                if lo is None or term.value > lo or (term.value == lo and lo_incl):
                    lo, lo_incl = term.value, True
                if hi is None or term.value < hi or (term.value == hi and hi_incl):
                    hi, hi_incl = term.value, True
                bounded = True
            elif term.op in ("<", "<="):
                incl = term.op == "<="
                if hi is None or term.value < hi or (term.value == hi and not incl):
                    hi, hi_incl = term.value, incl
                bounded = True
            elif term.op in (">", ">="):
                incl = term.op == ">="
                if lo is None or term.value > lo or (term.value == lo and not incl):
                    lo, lo_incl = term.value, incl
                bounded = True
        if not bounded:
            return None
        return (lo, hi, lo_incl, hi_incl)


def column_values(column: str, X, y, rows=None) -> np.ndarray:
    """``column`` of every row of ``(X, y)``, or of ``rows`` of it only —
    :func:`column_value`, vectorised."""
    if column == "label":
        return np.asarray(y if rows is None else y[rows], dtype=np.float64)
    k = int(column[1:])
    if not isinstance(X, SparseMatrix):
        return np.asarray(X[:, k] if rows is None else X[rows, k], dtype=np.float64)
    if rows is not None:
        X, y = X.take_rows(rows), y[rows]
    n = len(y)
    values = np.zeros(n, dtype=np.float64)
    row_of = np.repeat(np.arange(n), np.diff(X.indptr))
    hit = X.indices == k
    values[row_of[hit]] = X.data[hit]
    return values


def column_value(column: str, label: float, features) -> float:
    if column == "label":
        return float(label)
    k = int(column[1:])
    if isinstance(features, SparseRow):
        pos = np.searchsorted(features.indices, k)
        if pos < features.indices.size and features.indices[pos] == k:
            return float(features.values[pos])
        return 0.0
    return float(features[k])


def parse_predicate(text: str) -> Predicate:
    """Parse ``col op value [AND ...]`` into a :class:`Predicate`."""
    terms = []
    for part in re.split(r"\s+AND\s+", text.strip(), flags=re.IGNORECASE):
        match = _COMPARISON_RE.match(part)
        if not match:
            raise ParseError(
                f"cannot parse predicate term {part.strip()!r}; "
                "expected <column> <op> <number>"
            )
        column, op, value = match.group(1).lower(), match.group(2), float(match.group(3))
        terms.append(Comparison(column, op, value))
    if not terms:
        raise ParseError("empty predicate")
    return Predicate(tuple(terms))


@dataclass(frozen=True)
class PredictQuery:
    """A parsed ``PREDICT BY`` statement."""

    table: str
    model_id: str


@dataclass(frozen=True)
class SelectQuery:
    """A ``SELECT <cols> FROM table [LIMIT n]`` row fetch.

    The serve layer runs these inline (no job queue); ``limit`` bounds how
    many tuples cross the wire (``None`` = the engine's default cap).
    ``columns`` is ``None`` for ``SELECT *``; otherwise the parsed
    projection — ``rid`` (alias ``id``), ``label``, ``features``, or
    ``f<k>`` for one feature.  On a columnar table a projection that skips
    the features reads only the requested column chunks (the lazy path).
    """

    table: str
    limit: int | None = None
    columns: tuple[str, ...] | None = None
    where: Predicate | None = None


@dataclass(frozen=True)
class EvaluateQuery:
    """A parsed ``EVALUATE BY`` statement (score a model on a table)."""

    table: str
    model_id: str


@dataclass(frozen=True)
class ExplainQuery:
    """An ``EXPLAIN`` wrapper around a training statement."""

    inner: TrainSpec


@dataclass(frozen=True)
class InsertQuery:
    """``INSERT INTO t VALUES (label, v0, v1, ...), ...`` — dense row
    literals; sparse tables drop the zero values on store."""

    table: str
    rows: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class UpdateQuery:
    """``UPDATE t SET col = value[, ...] WHERE ...``."""

    table: str
    assignments: tuple[tuple[str, float], ...]
    where: Predicate


@dataclass(frozen=True)
class DeleteQuery:
    """``DELETE FROM t WHERE ...``."""

    table: str
    where: Predicate


@dataclass(frozen=True)
class CreateIndexQuery:
    """``CREATE INDEX name ON t(col)`` — single-column B+tree."""

    name: str
    table: str
    column: str


@dataclass(frozen=True)
class DropIndexQuery:
    """``DROP INDEX name ON t``."""

    name: str
    table: str


def _parse_value(raw: str):
    raw = raw.strip()
    if _SIZE_RE.match(raw):
        return parse_size(raw)
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw.strip("'\"")


def parse_query(
    sql: str,
) -> TrainSpec | PredictQuery | EvaluateQuery | ExplainQuery | SelectQuery:
    """Parse one statement; raises :class:`ParseError` on malformed input
    (and :class:`~repro.db.errors.SpecError` on a TRAIN knob value the
    :class:`~repro.db.spec.TrainSpec` rejects)."""
    from .spec import TrainSpec

    stripped = sql.lstrip()
    if stripped[:8].upper() == "EXPLAIN ":
        inner = parse_query(stripped[8:])
        if not isinstance(inner, TrainSpec):
            raise ParseError("EXPLAIN is only supported for TRAIN BY statements")
        return ExplainQuery(inner)
    match = _CREATE_INDEX_RE.match(sql)
    if match:
        name, table, column = match.group(1), match.group(2), match.group(3).lower()
        if column != "label" and not _FEATURE_COL_RE.match(column):
            raise ParseError(
                f"cannot index column {column!r}; expected label or f<k>"
            )
        return CreateIndexQuery(name=name, table=table, column=column)
    match = _DROP_INDEX_RE.match(sql)
    if match:
        return DropIndexQuery(name=match.group(1), table=match.group(2))
    match = _INSERT_RE.match(sql)
    if match:
        table, values_text = match.group(1), match.group(2).strip()
        rows = []
        consumed = 0
        for literal in _ROW_LITERAL_RE.finditer(values_text):
            consumed = literal.end()
            fields = [f for f in literal.group(1).split(",") if f.strip()]
            if not fields:
                raise ParseError("empty row literal in INSERT")
            try:
                rows.append(tuple(float(f) for f in fields))
            except ValueError as exc:
                raise ParseError(
                    f"bad numeric literal in INSERT row {literal.group(0)}"
                ) from exc
        trailing = values_text[consumed:].strip().strip(",").strip()
        if not rows or trailing:
            raise ParseError(
                "INSERT expects VALUES (label, v0, v1, ...)[, (...)] row literals"
            )
        return InsertQuery(table=table, rows=tuple(rows))
    match = _DELETE_RE.match(sql)
    if match:
        return DeleteQuery(table=match.group(1), where=parse_predicate(match.group(2)))
    match = _UPDATE_RE.match(sql)
    if match:
        table, set_text, where_text = match.group(1), match.group(2), match.group(3)
        assignments = []
        for part in set_text.split(","):
            if "=" not in part:
                raise ParseError(f"malformed SET assignment {part.strip()!r}")
            column, raw = part.split("=", 1)
            column = column.strip().lower()
            if column != "label" and not _FEATURE_COL_RE.match(column):
                raise ParseError(
                    f"cannot SET column {column!r}; expected label or f<k>"
                )
            try:
                assignments.append((column, float(raw)))
            except ValueError as exc:
                raise ParseError(f"bad value for SET {column}: {raw.strip()!r}") from exc
        if not assignments:
            raise ParseError("UPDATE needs at least one SET assignment")
        return UpdateQuery(
            table=table,
            assignments=tuple(assignments),
            where=parse_predicate(where_text),
        )
    match = _PREDICT_RE.match(sql)
    if match:
        return PredictQuery(table=match.group(1), model_id=match.group(2))
    match = _EVALUATE_RE.match(sql)
    if match:
        return EvaluateQuery(table=match.group(1), model_id=match.group(2))
    # TRAIN must be tried before the plain SELECT: a WHERE clause is free
    # text to the SELECT regex and would swallow the TRAIN BY suffix.
    match = _TRAIN_RE.match(sql)
    if match:
        return _parse_train(match)
    match = _SELECT_RE.match(sql)
    if match:
        collist, table, where_text, limit = (
            match.group(1),
            match.group(2),
            match.group(3),
            match.group(4),
        )
        columns: tuple[str, ...] | None = None
        if collist.strip() != "*":
            names = []
            for raw in collist.split(","):
                name = raw.strip().lower()
                if name == "id":
                    name = "rid"
                if name not in ("rid", "label", "features") and not _FEATURE_COL_RE.match(name):
                    raise ParseError(
                        f"unknown column {raw.strip()!r}; "
                        "expected rid, label, features, or f<k>"
                    )
                names.append(name)
            columns = tuple(names)
        return SelectQuery(
            table=table,
            limit=int(limit) if limit is not None else None,
            columns=columns,
            where=parse_predicate(where_text) if where_text else None,
        )
    raise ParseError(f"cannot parse query: {sql!r}")


_GRID_RE = re.compile(r"grid\s*=\s*\(([^()]*)\)\s*,?", re.IGNORECASE)

#: The two ``WITH`` keys spelled as in the paper's SQL, not as the field.
_SQL_SPELLING = {"lr": "learning_rate", "epochs": "max_epoch_num"}


@functools.cache
def _with_knobs() -> dict[str, tuple[str, type]]:
    """``WITH`` key → (``TrainSpec`` field, the type its value is coerced
    to): every field but the ``FROM`` / ``BY`` / ``WHERE`` clauses and the
    output-only ``extra``."""
    from .spec import TrainSpec

    hints = typing.get_type_hints(TrainSpec)
    knobs = {}
    for f in fields(TrainSpec):
        if f.init and f.name not in ("table", "model", "where"):
            kind = hints[f.name]
            # ``float | None`` and friends coerce to their non-None type.
            kind = next((t for t in typing.get_args(kind) if t is not type(None)), kind)
            knobs[_SQL_SPELLING.get(f.name, f.name)] = (f.name, kind)
    return dict(sorted(knobs.items()))


def _parse_grid(text: str):
    """Parse the body of ``grid = (lr = 0.1 | 0.01, l2 = 0 | 1e-4)``."""
    from .spec import GridSpec

    axes: dict[str, list[float]] = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ParseError(
                f"malformed grid axis {part.strip()!r}; "
                "expected name = v1 | v2 | ..."
            )
        name, raw_values = part.split("=", 1)
        values = []
        for raw in raw_values.split("|"):
            try:
                values.append(float(raw))
            except ValueError as exc:
                raise ParseError(
                    f"bad grid value {raw.strip()!r} for axis {name.strip()!r}"
                ) from exc
        axes[name.strip().lower()] = values
    if not axes:
        raise ParseError("grid = (...) declared no axes")
    return GridSpec.from_axes(axes)


def _parse_train(match) -> TrainSpec:
    from .spec import TrainSpec

    table, where_text, model, params_text = (
        match.group(1),
        match.group(2),
        match.group(3).lower(),
        match.group(4) or "",
    )
    if model not in MODEL_NAMES:
        raise ParseError(f"unknown model {model!r}; supported: {', '.join(MODEL_NAMES)}")
    values: dict = {}
    if where_text:
        values["where"] = parse_predicate(where_text)
    # The grid's parenthesised value list contains commas and ``=``; lift
    # it out whole before the flat per-assignment comma split below.
    grid_match = _GRID_RE.search(params_text)
    if grid_match:
        values["grid"] = _parse_grid(grid_match.group(1))
        params_text = params_text[: grid_match.start()] + params_text[grid_match.end():]
    knobs = _with_knobs()
    for assignment in params_text.split(","):
        if not assignment.strip():
            continue
        if "=" not in assignment:
            raise ParseError(f"malformed parameter {assignment.strip()!r}")
        key, raw = assignment.split("=", 1)
        key = key.strip().lower()
        if key == "grid":
            raise ParseError(
                "grid expects a parenthesised axis list: "
                "grid = (lr = 0.1 | 0.01, ...)"
            )
        if key == "fused":
            # Per-tuple SGD is always the compiled kernel.  ``fused = true``
            # is still accepted, as a no-op, because old statements, served
            # journals and the e2e benchmark's ``COMMON_WITH`` spell it; the
            # benchmark change that drops it there (ROADMAP item 0) drops
            # this case too.
            if _parse_value(raw) is not True:
                raise ParseError(
                    f"fused = {raw.strip()} is not supported: the per-tuple path "
                    "is the compiled step_block kernel (fused = true is a no-op)"
                )
            continue
        if key not in knobs:
            # A typo'd knob must not train with the default in its place.
            raise ParseError(
                f"unknown TRAIN knob {key!r}; WITH takes the typed fields of "
                f"repro.db.spec.TrainSpec, spelled: {', '.join(knobs)}"
            )
        name, coerce = knobs[key]
        try:
            values[name] = coerce(_parse_value(raw))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad value for {key}: {raw.strip()!r}") from exc
    return TrainSpec(table=table, model=model, **values)
