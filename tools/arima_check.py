"""Fit ``auto_arima`` on a fixed set of 80 bench-relation series and print
every fit as JSON, so two versions of the fitter can be diffed.

    PYTHONPATH=src python3 tools/arima_check.py > fits.json
    PYTHONPATH=src python3 tools/arima_check.py --against parent.json > fits.json
    PYTHONPATH=src python3 tools/arima_check.py --data-seed 8 > held_out.json

The set: the ads relation at SF 0.1 over 165 days with data seed 7 (the
benchmark's relation; ``--data-seed`` draws another). Series ``i`` sums measure ``ADS_MEASURES[i % 4]``
over a ``random_constraint`` of selectivity log-uniform in [0.5%, 10%].
Even-numbered series are estimated from one 2% arithmetic-GSW sample over
all four measures (the benchmark's C-GSW weight), drawn in numpy; odd ones
are exact. Each fit uses days 0-149 on the benchmark's grid (p, q <= 2,
d <= 1) and its 7-day forecast is scored against the exact series.

Per series it prints the chosen order, AIC, forecast error, the chosen
fit's ``nit``, the ``auto_arima`` wall time and the number of candidates
that did not converge, then a summary. ``--against`` adds a comparison
with an earlier output: chosen AICs better or worse by more than 1e-5,
and the ratio of mean forecast errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro.core.estimators import estimated_series
from repro.core.gsw import solve_delta
from repro.forecast import arima
from repro.forecast.metrics import relative_forecast_error
from repro.sampling.base import est_col
from repro.synth_data import ADS_DIMS, ADS_MEASURES, ads_pandas, random_constraint

SF, DAYS = 0.1, 165
TRAIN, HORIZON = 150, 7
GRID = {"max_p": 2, "max_q": 2, "max_d": 1}
N_SERIES, RATE, SEL_RANGE = 80, 0.02, (0.005, 0.10)


def series_set(data_seed: int = 7) -> list[dict]:
    """The 80 series: measure, constraint, source and the served and exact values."""
    rel = ads_pandas(sf=SF, days=DAYS, seed=data_seed)
    m = rel[list(ADS_MEASURES)].to_numpy(dtype="float64")
    w = m.mean(axis=1)
    vals, counts = np.unique(w, return_counts=True)
    delta = solve_delta(vals, counts, RATE * len(rel))
    keep = np.random.default_rng(data_seed).random(len(rel)) <= w / (delta + w)
    sample = rel.loc[keep, ["t", *ADS_DIMS]].copy()
    exact = rel[["t", *ADS_DIMS]].copy()
    for j, name in enumerate(ADS_MEASURES):
        sample[est_col(name)] = m[keep, j] * (delta + w[keep]) / w[keep]
        exact[est_col(name)] = m[:, j]
    g = np.random.default_rng(data_seed)
    lo, hi = np.log(SEL_RANGE[0]), np.log(SEL_RANGE[1])
    out = []
    for i in range(N_SERIES):
        measure = ADS_MEASURES[i % len(ADS_MEASURES)]
        where, _ = random_constraint(float(np.exp(g.uniform(lo, hi))), seed=i)
        truth = estimated_series(exact, where, measure, DAYS)
        served = estimated_series(sample, where, measure, DAYS) if i % 2 == 0 else truth
        out.append({"i": i, "measure": measure, "where": where,
                    "source": "gsw-2" if i % 2 == 0 else "exact",
                    "served": served, "truth": truth})
    return out


def fit_all(series: list[dict]) -> list[dict]:
    """``auto_arima`` on each series, recording every candidate's convergence."""
    fit_arma = arima.fit_arma
    candidates: list = []

    def recorded(*args, **kwargs):
        res = fit_arma(*args, **kwargs)
        candidates.append(res)
        return res

    arima.fit_arma = recorded
    try:
        rows = []
        for s in series:
            candidates.clear()
            start = time.perf_counter()
            fit = arima.auto_arima(s["served"][:TRAIN], **GRID)
            ms = 1e3 * (time.perf_counter() - start)
            point, _, _ = fit.forecast(HORIZON)
            rows.append({
                "i": s["i"], "measure": s["measure"], "source": s["source"],
                "where": s["where"], "order": list(fit.order), "aic": fit.aic,
                "fc_err": relative_forecast_error(point, s["truth"][TRAIN:TRAIN + HORIZON]),
                "nit": fit.arma.nit, "fit_ms": ms,
                "not_converged": sum(not c.converged for c in candidates),
            })
        return rows
    finally:
        arima.fit_arma = fit_arma


def summary(rows: list[dict], against: list[dict] | None) -> dict:
    ms = sorted(r["fit_ms"] for r in rows)
    out = {
        "series": len(rows),
        "mean_fc_err": float(np.mean([r["fc_err"] for r in rows])),
        "not_converged": sum(r["not_converged"] for r in rows),
        "fit_ms_median": median(ms),
        "fit_ms_p98": float(np.percentile(ms, 98)),
    }
    if against is not None:
        diff = [r["aic"] - a["aic"] for r, a in zip(rows, against)]
        out["aic_better"] = sum(d < -1e-5 for d in diff)
        out["aic_worse"] = sum(d > 1e-5 for d in diff)
        out["aic_worst_diff"] = max(diff)
        out["fc_err_ratio"] = out["mean_fc_err"] / float(np.mean([a["fc_err"] for a in against]))
        out["orders_changed"] = sum(r["order"] != a["order"] for r, a in zip(rows, against))
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", type=Path, help="an earlier output of this script")
    p.add_argument("--data-seed", type=int, default=7, help="seed of the ads relation")
    args = p.parse_args(argv)
    against = json.loads(args.against.read_text())["fits"] if args.against else None
    rows = fit_all(series_set(args.data_seed))
    json.dump({"fits": rows, "summary": summary(rows, against)}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
