"""Per-day aggregation queries — eq. (4) of the paper.

A forecasting task needs the series ``M_t = SUM(m) WHERE C AND t = τ``
for every day in the training window; one pass answers all t₀ of them,
as the paper notes.

* The exact series scans the full relation on Spark: one Catalyst plan
  ``Filter(C) → Aggregate(t, SUM(m))`` with one map task per partition of
  its input; ``FlashP`` runs it over ``FlashP.scan``, one partition per
  core. The full scan is the baseline the samples beat.
* The estimated series is a Horvitz–Thompson subset sum of a sample's
  calibrated column ``{m}_est``, served from the sample held in driver
  memory as a columnar frame (the paper's Fig. 2). ``C`` becomes one
  boolean lookup table per predicate, indexed by the dimension codes;
  one ``np.bincount`` over ``t`` sums the selected rows per day.

Results come back as dense numpy arrays indexed by day (missing days are
0 — no surviving rows means the subset-sum estimate is 0; ``FlashP.run``
reports how many in ``ForecastOutcome.zero_days``). A row whose day lies
outside ``[0, days)`` raises instead of being dropped.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.task import parse_where
from repro.sampling.base import est_col
from repro.synth_data import ADS_DIMS


def _outside(t: int, days: int) -> ValueError:
    return ValueError(f"day t={t} lies outside [0, {days})")


def exact_series(df: DataFrame, where: str | None, measure: str, days: int) -> np.ndarray:
    """Ground-truth ``M_t`` for t = 0..days-1 via a full scan."""
    sel = df.where(where) if where else df
    rows = (
        sel.groupBy("t")
        .agg(F.sum(F.col(measure).cast("double")).alias("s"))
        .collect()
    )
    out = np.zeros(days, dtype="float64")
    for r in rows:
        t = int(r["t"])
        if not 0 <= t < days:
            raise _outside(t, days)
        out[t] = float(r["s"] or 0.0)
    return out


def estimated_series(
    sample: pd.DataFrame | DataFrame, where: str | None, measure: str, days: int
) -> np.ndarray:
    """Estimated ``M̂_t`` from a sample's calibrated column ``{m}_est``.

    ``sample`` holds ``t``, the dimension codes and ``{m}_est`` (a frame
    of ``FlashP``'s store); a Spark DataFrame is collected first. A
    dimension code outside its cardinality raises ``ValueError``.
    """
    col = est_col(measure)
    preds = parse_where(where)
    if isinstance(sample, DataFrame):
        sample = sample.select("t", *dict.fromkeys(p.dim for p in preds), col).toPandas()
    mask = np.ones(len(sample), dtype=bool)
    for p in preds:
        card = ADS_DIMS[p.dim]
        codes = sample[p.dim].to_numpy()
        if codes.size and (codes.min() < 0 or codes.max() >= card):
            raise ValueError(f"{p.dim} has codes outside [0, {card})")
        lut = np.zeros(card, dtype=bool)
        lut[list(p.values)] = True
        mask &= lut[codes]
    t = sample["t"].to_numpy()[mask]
    if t.size and (t.min() < 0 or t.max() >= days):
        raise _outside(int(t[(t < 0) | (t >= days)][0]), days)
    sums = np.bincount(t, weights=sample[col].to_numpy(dtype="float64")[mask], minlength=days)
    return sums.astype("float64", copy=False)  # numpy returns int64 for an empty selection


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
