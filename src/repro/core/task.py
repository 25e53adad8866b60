"""The FlashP forecasting-task language — eq. (1) — and its rewriter.

    FORECAST SUM(<measure>) FROM <table>
    WHERE <constraint C>
    USING (<t_start>, <t_end>)
    [OPTION (MODEL = '<arima|lstm>', FORE_PERIOD = <h>)]

The constraint is a conjunction of per-dimension predicates over the
integer-coded dimensions (``dim IN (...)``, ``dim = v``, ``dim <= v``,
…). ``parse_where`` normalizes every predicate to an explicit value set
using the known dimension cardinalities — the Query Rewriter needs the
SQL string verbatim (Spark evaluates it), while the PIM baseline needs
the value sets to look up per-value marginals.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.synth_data import ADS_DIMS, ADS_MEASURES

_TASK_RE = re.compile(
    r"""^\s*FORECAST\s+SUM\(\s*(?P<measure>\w+)\s*\)\s+
        FROM\s+(?P<table>\w+)\s+
        (?:WHERE\s+(?P<where>.+?)\s+)?
        USING\s*\(\s*(?P<ts>\d+)\s*,\s*(?P<te>\d+)\s*\)
        (?:\s*OPTION\s*\(\s*(?P<opts>.+?)\s*\))?\s*$""",
    re.IGNORECASE | re.VERBOSE | re.DOTALL,
)

_PRED_RE = re.compile(
    r"""^\s*(?P<dim>\w+)\s*
        (?:(?P<op><=|>=|<|>|=)\s*(?P<val>\d+)
          |IN\s*\(\s*(?P<vals>\d+(?:\s*,\s*\d+)*)\s*\))\s*$""",
    re.IGNORECASE | re.VERBOSE,
)


@dataclass(frozen=True)
class Predicate:
    """One conjunct of C, normalized to an explicit value set."""

    dim: str
    values: frozenset[int]

    def to_sql(self) -> str:
        return f"{self.dim} IN ({', '.join(map(str, sorted(self.values)))})"


@dataclass
class ForecastTask:
    """A parsed FORECAST statement."""

    measure: str
    table: str
    where: str | None
    t_start: int
    t_end: int
    model: str = "arima"
    fore_period: int = 7
    predicates: list[Predicate] = field(default_factory=list)

    @property
    def n_train(self) -> int:
        return self.t_end - self.t_start + 1


def parse_where(where: str | None) -> list[Predicate]:
    """Normalize a conjunctive constraint to per-dimension value sets."""
    if not where or not where.strip():
        return []
    preds = []
    for clause in re.split(r"\s+AND\s+", where.strip(), flags=re.IGNORECASE):
        m = _PRED_RE.match(clause)
        if not m:
            raise ValueError(f"unsupported predicate: {clause!r}")
        dim = m.group("dim")
        if dim not in ADS_DIMS:
            raise ValueError(f"unknown dimension: {dim!r}")
        card = ADS_DIMS[dim]
        if m.group("vals") is not None:
            values = {int(v) for v in m.group("vals").split(",")}
        else:
            op, val = m.group("op"), int(m.group("val"))
            domain = range(card)
            values = {
                "=": {v for v in domain if v == val},
                "<": {v for v in domain if v < val},
                "<=": {v for v in domain if v <= val},
                ">": {v for v in domain if v > val},
                ">=": {v for v in domain if v >= val},
            }[op]
        bad = {v for v in values if not (0 <= v < card)}
        if bad:
            raise ValueError(f"values {sorted(bad)} out of range for {dim} (card {card})")
        preds.append(Predicate(dim, frozenset(values)))
    return preds


def parse_task(text: str) -> ForecastTask:
    """Parse a FORECAST statement into a :class:`ForecastTask`."""
    m = _TASK_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse forecasting task: {text!r}")
    measure = m.group("measure").lower()
    if measure not in ADS_MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {ADS_MEASURES}")
    model, fore_period = "arima", 7
    if m.group("opts"):
        for opt in m.group("opts").split(","):
            key, _, val = opt.partition("=")
            key, val = key.strip().upper(), val.strip().strip("'\"")
            if key == "MODEL":
                if val.lower() not in ("arima", "lstm"):
                    raise ValueError(f"unsupported MODEL {val!r}")
                model = val.lower()
            elif key == "FORE_PERIOD":
                fore_period = int(val)
            else:
                raise ValueError(f"unknown OPTION key {key!r}")
    if fore_period < 1:
        raise ValueError(f"FORE_PERIOD must be at least 1, got {fore_period}")
    ts, te = int(m.group("ts")), int(m.group("te"))
    if te < ts:
        raise ValueError(f"USING window is empty: ({ts}, {te})")
    where = m.group("where")
    task = ForecastTask(
        measure=measure,
        table=m.group("table"),
        where=where.strip() if where else None,
        t_start=ts,
        t_end=te,
        model=model,
        fore_period=fore_period,
    )
    task.predicates = parse_where(task.where)
    return task


def rewrite_where(task: ForecastTask) -> str | None:
    """The Query Rewriter's canonical WHERE: every predicate as IN-list."""
    if not task.predicates:
        return None
    return " AND ".join(p.to_sql() for p in task.predicates)
