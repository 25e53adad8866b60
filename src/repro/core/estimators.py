"""Per-day aggregation queries — eq. (4) of the paper.

A forecasting task needs the series ``M_t = SUM(m) WHERE C AND t = τ``
for every day in the training window. Both the exact series (full scan)
and the estimated series (scan of a sample's calibrated column) are the
same Catalyst plan shape: ``Filter(C) → Aggregate(t, SUM(x))`` — one
scan answers all t₀ aggregation queries, as the paper notes.

Results come back as dense numpy arrays indexed by day (missing days are
0 — no surviving rows means the subset-sum estimate is 0; ``FlashP.run``
reports how many in ``ForecastOutcome.zero_days``). A row whose day lies
outside ``[0, days)`` raises instead of being dropped.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.sampling.base import est_col


def _series(df: DataFrame, where: str | None, value_col: str, days: int) -> np.ndarray:
    sel = df.where(where) if where else df
    rows = (
        sel.groupBy("t")
        .agg(F.sum(F.col(value_col).cast("double")).alias("s"))
        .collect()
    )
    out = np.zeros(days, dtype="float64")
    for r in rows:
        t = int(r["t"])
        if not 0 <= t < days:
            raise ValueError(f"day t={t} lies outside [0, {days})")
        out[t] = float(r["s"] or 0.0)
    return out


def exact_series(df: DataFrame, where: str | None, measure: str, days: int) -> np.ndarray:
    """Ground-truth ``M_t`` for t = 0..days-1 via a full scan."""
    return _series(df, where, measure, days)


def estimated_series(
    sample: DataFrame, where: str | None, measure: str, days: int
) -> np.ndarray:
    """Estimated ``M̂_t`` from a sample's calibrated column ``{m}_est``."""
    return _series(sample, where, est_col(measure), days)


def relative_agg_error(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean per-day relative aggregation error |M̂_t - M_t| / M_t.

    Days with ``M_t = 0`` are skipped (no defined relative error); if all
    days are zero the error is reported as 0 when the estimate agrees and
    inf otherwise.
    """
    mask = truth != 0
    if not mask.any():
        return 0.0 if np.allclose(est, 0) else float("inf")
    return float(np.mean(np.abs(est[mask] - truth[mask]) / truth[mask]))
