"""Exp-V / Figure 16: space cost under the same accuracy requirement.

The paper fixes an Arithmetic compressed GSW sample size, then, per
measure, sizes an Optimal GSW sample to give the same aggregation
error; the total of the four Optimal samples comes out ≈1.8× the single
compressed sample.

We reproduce it with the paper's own machinery: the exact error
formulas of Appendix A.2 (Var[M̂] = Σ Δ m²/w, E|S_Δ| = Σ w/(Δ+w)) give
each sampler's RSTD as a function of Δ, so the size-matching is done in
closed form over the real measure vectors, then verified empirically by
drawing the sized samples in Spark and comparing measured aggregation
errors.
"""
from __future__ import annotations

from contextlib import closing

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.estimators import estimated_series, exact_series, relative_agg_error
from repro.core.grouping import measure_matrix
from repro.core.gsw import arithmetic_weight, gsw_sample, optimal_weight, solve_delta
from repro.core.pipeline import FlashP
from repro.experiments.common import ExpConfig
from repro.synth_data import ADS_MEASURES
from repro.theory.bounds import expected_sample_size, rstd_exact

PAPER_RATIO = 1.8  # paper: Σ Opt-GSW sizes ≈ 1.8 × C-GSW size


def run_exp5(
    df: DataFrame, cfg: ExpConfig, *, verify_rate: float | None
) -> tuple[pd.DataFrame, pd.DataFrame | None]:
    """Size-match Optimal GSW to Arithmetic C-GSW per rate.

    Returns two tables. The first has one row per compressed-sample rate
    with the per-measure Optimal sizes, the total, and the size ratio.
    The second verifies the matching at ``verify_rate`` empirically, by
    drawing the sized samples in Spark: one row per measure with both
    aggregation errors. It is None when ``verify_rate`` is None or not
    one of ``cfg.rates``.
    """
    with closing(FlashP(df, days=cfg.days)) as fp:
        M = measure_matrix(fp.scan, list(ADS_MEASURES))
        w_arith = np.mean([M[m] for m in ADS_MEASURES], axis=0)
        n = len(w_arith)

        rows = []
        for rate in cfg.rates:
            target = rate * n
            delta_a = solve_delta(*np.unique(w_arith, return_counts=True), target, rtol=1e-12)
            opt_sizes = {}
            opt_deltas = {}
            max_err = 0.0
            for m in ADS_MEASURES:
                r_a = rstd_exact(M[m], w_arith, delta_a)
                max_err = max(max_err, r_a)
                # Optimal GSW (w=m): RSTD(Δ) = sqrt(Δ/M) → Δ matching r_a:
                delta_m = r_a**2 * M[m].sum()
                opt_deltas[m] = delta_m
                opt_sizes[m] = expected_sample_size(M[m], delta_m)
            total_opt = float(sum(opt_sizes.values()))
            rows.append(
                {
                    "cgsw_rate": rate,
                    "cgsw_size": target,
                    "cgsw_delta": delta_a,
                    "max_agg_rstd": max_err,
                    **{f"opt_size_{m}": float(opt_sizes[m]) for m in ADS_MEASURES},
                    "total_opt_size": total_opt,
                    "size_ratio": total_opt / target,
                    "paper_ratio": PAPER_RATIO,
                }
            )

        out = pd.DataFrame(rows)
        verify = None
        if verify_rate is not None and verify_rate in cfg.rates:
            # Empirical check: matched sizes give matched aggregation errors.
            row = out[out["cgsw_rate"] == verify_rate].iloc[0]
            sa = gsw_sample(
                fp.scan, arithmetic_weight(list(ADS_MEASURES)), float(row["cgsw_delta"]),
                measures=list(ADS_MEASURES), seed=51,
            ).toPandas()
            errs = []
            for m in ADS_MEASURES:
                # recompute the matched Δ for this measure
                r_a = rstd_exact(M[m], w_arith, float(row["cgsw_delta"]))
                delta_m = r_a**2 * M[m].sum()
                so = gsw_sample(
                    fp.scan, optimal_weight(m), delta_m, measures=[m], seed=52
                ).toPandas()
                truth = exact_series(fp.scan, None, m, cfg.days)
                e_a = relative_agg_error(estimated_series(sa, None, m, cfg.days), truth)
                e_o = relative_agg_error(estimated_series(so, None, m, cfg.days), truth)
                errs.append({"measure": m, "agg_err_cgsw": e_a, "agg_err_opt": e_o})
            verify = pd.DataFrame(errs)
    return out, verify
