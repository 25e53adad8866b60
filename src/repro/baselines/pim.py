"""PIM (Partwise Independence Model) — the Bayesian-model baseline of
Agarwal et al. [8], compared against in the paper's Exp-I (Table 1).

PIM avoids scanning the fact table at query time by precomputing, per
day, the measure total and the per-(dimension, value) marginal sums
(a one-dimensional cube per dimension — linear space). A constraint
``C = d1 ∈ V1 AND d2 ∈ V2 ...`` is then estimated under the
independence assumption:

    M̂(C, t) = Total_t · Π_j ( Σ_{v ∈ Vj} marginal[dj, v, t] / Total_t )

This is exact when the measure's conditional distribution factorizes
over dimensions, and biased otherwise — the ads generator deliberately
includes a gender×interest interaction, so PIM shows the systematic
error the paper reports (Table 1: PIM is the worst method by far).

The totals and the marginal cubes are built by one Spark scan of the
fact table with one grouping set per cube (offline, like the paper's
sample preprocessing), then held driver-side: days × Σ_dim card(dim)
values per measure — tiny. A day outside ``[0, days)`` or a code outside
its dimension's cardinality raises instead of being dropped.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.task import parse_where
from repro.synth_data import ADS_DIMS


class PIM:
    """Per-day partwise-independence estimator for SUM aggregations."""

    def __init__(self, df: DataFrame, measures: list[str], *, days: int):
        self.measures = list(measures)
        self.days = days
        dims = list(ADS_DIMS)
        sums = [F.sum(F.col(m).cast("double")).alias(m) for m in self.measures]
        # The one dimension a row of the scan is grouped by (null: the total).
        level = F.coalesce(*(F.when(F.grouping(d) == 0, F.lit(d)) for d in dims))
        rows = (
            df.groupingSets([["t"], *(["t", d] for d in dims)], "t", *dims)
            .agg(*sums, level.alias("_dim"))
            .collect()
        )
        # totals[m][t]; marginals[m][dim][t, value]
        self.totals: dict[str, np.ndarray] = {
            m: np.zeros(days) for m in self.measures
        }
        self.marginals: dict[str, dict[str, np.ndarray]] = {
            m: {d: np.zeros((days, card)) for d, card in ADS_DIMS.items()}
            for m in self.measures
        }
        for r in rows:
            t, dim = int(r["t"]), r["_dim"]
            if not 0 <= t < days:
                raise ValueError(f"day t={t} lies outside [0, {days})")
            if dim is None:
                for m in self.measures:
                    self.totals[m][t] = float(r[m] or 0.0)
                continue
            v, card = int(r[dim]), ADS_DIMS[dim]
            if not 0 <= v < card:
                raise ValueError(f"{dim} code {v} lies outside [0, {card})")
            for m in self.measures:
                self.marginals[m][dim][t, v] = float(r[m] or 0.0)

    def estimate_series(self, where: str | None, measure: str) -> np.ndarray:
        """M̂_t for t = 0..days-1 under partwise independence."""
        if measure not in self.measures:
            raise ValueError(f"measure {measure!r} not precomputed")
        total = self.totals[measure]
        est = total.copy()
        for pred in parse_where(where):
            marg = self.marginals[measure][pred.dim]
            mass = marg[:, sorted(pred.values)].sum(axis=1)
            ratio = np.divide(
                mass, total, out=np.zeros_like(mass), where=total != 0
            )
            est = est * ratio
        return est
