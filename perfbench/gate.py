"""The correctness gate and the accuracy metrics, computed with DuckDB.

Nothing here touches Spark, so the gate adds no load to the program under
test. It runs after the timed section:

* the served training series must equal DuckDB's ``SUM`` over the same
  source to 1e-9 relative: the generated frame for ``full``, or the
  sample's ``{m}_est`` rows (collected once after set-up) for a sample;
* the forecast must have ``FORE_PERIOD`` finite values with
  ``lower <= point <= upper``.

Exact ``M_t`` and the true next ``h`` days, for the error metrics, also
come from DuckDB over the generated frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd

from repro.core.estimators import relative_agg_error
from repro.forecast.metrics import relative_forecast_error

from perfbench.workloads import DAYS, HORIZON, T_END, T_START, Task

RTOL = 1e-9


@dataclass
class Check:
    ok: bool
    reason: str = ""
    agg_rel_err: float = float("nan")
    fc_rel_err: float = float("nan")


class Oracle:
    """DuckDB over the generated table and the collected samples."""

    def __init__(self, table: pd.DataFrame, samples: dict[str, pd.DataFrame]):
        self.con = duckdb.connect()
        self.con.register("ads", table)
        self.views = {}
        for i, (name, pdf) in enumerate(samples.items()):
            self.con.register(f"s{i}", pdf)
            self.views[name] = f"s{i}"

    def close(self) -> None:
        self.con.close()

    def series(self, view: str, column: str, where: str) -> np.ndarray:
        rows = self.con.execute(
            f"SELECT t, SUM(CAST({column} AS DOUBLE)) FROM {view} "
            f"WHERE {where} GROUP BY t"
        ).fetchall()
        out = np.zeros(DAYS)
        for t, s in rows:
            out[int(t)] = s
        return out

    def check(self, task: Task, served, point, lower, upper) -> Check:
        """Gate one task's output and compute its error metrics."""
        exact = self.series("ads", task.measure, task.where)
        if task.source == "full":
            expected = exact
        else:
            expected = self.series(self.views[task.source], f"{task.measure}_est", task.where)
        return check_output(
            served, point, lower, upper,
            expected=expected[T_START : T_END + 1],
            exact=exact[T_START : T_END + 1],
            future=exact[T_END + 1 : T_END + 1 + HORIZON],
        )


def check_output(served, point, lower, upper, *, expected, exact, future) -> Check:
    served = np.asarray(served, dtype="float64")
    if served.shape != expected.shape:
        return Check(False, f"series has shape {served.shape}, expected {expected.shape}")
    if not np.allclose(served, expected, rtol=RTOL, atol=0.0):
        worst = int(np.argmax(np.abs(served - expected)))
        return Check(
            False,
            f"series differs from the oracle at day {T_START + worst}: "
            f"{served[worst]!r} != {expected[worst]!r}",
        )
    fc = [np.asarray(a, dtype="float64") for a in (point, lower, upper)]
    if any(a.shape != (HORIZON,) for a in fc):
        return Check(False, f"forecast shapes {[a.shape for a in fc]}, expected ({HORIZON},)")
    if not all(np.isfinite(a).all() for a in fc):
        return Check(False, "forecast is not finite")
    point, lower, upper = fc
    if not ((lower <= point).all() and (point <= upper).all()):
        return Check(False, "forecast violates lower <= point <= upper")
    return Check(
        True,
        agg_rel_err=relative_agg_error(served, exact),
        fc_rel_err=relative_forecast_error(point, future),
    )
