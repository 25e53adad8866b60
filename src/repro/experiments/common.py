"""Shared configuration and helpers for the experiment harnesses.

Scale note (documented in EXPERIMENTS.md): the paper's dataset has
~15M rows/day and uses sampling rates 0.02%–1% (≈3k–150k sampled rows
per day). Our benchmark dataset is SF=0.1 (15k rows/day — 1000× fewer),
so we sweep rates 0.5%–10% (≈75–1500 sampled rows/day). Relative
orderings and trends — which sampler wins, how error falls with rate,
where compressed GSW approaches optimal GSW — are rate-shape properties
and survive this rescaling; absolute errors are larger than the paper's
because per-day sample sizes are smaller.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.estimators import exact_series
from repro.synth_data import ads_data, random_constraint

# Where experiment tables are written; EXPERIMENTS.md quotes these files.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


@dataclass
class ExpConfig:
    """One knob-set for the experiment harnesses. The defaults are the
    benchmark scale: SF=0.1, sized to finish in minutes."""

    sf: float = 0.1
    days: int = 165
    train_days: int = 150
    horizon: int = 7
    rates: tuple[float, ...] = (0.005, 0.02, 0.10)
    selectivities: tuple[float, ...] = (0.005, 0.05)
    n_tasks: int = 3
    seed: int = 7
    arima_kwargs: dict = field(
        default_factory=lambda: {"max_p": 2, "max_q": 2, "max_d": 1}
    )


def load_ads(spark: SparkSession, cfg: ExpConfig) -> DataFrame:
    """Generate + cache the ads relation for a config, as perfbench builds
    its own, so ``FlashP`` cuts its copy along the plan that perfbench times."""
    df = ads_data(spark, sf=cfg.sf, days=cfg.days, seed=cfg.seed).cache()
    df.count()
    return df


def tasks_for(
    cfg: ExpConfig, *, selectivity: float, measure: str, base_seed: int = 0,
    min_dims: int = 1,
):
    """The harnesses' random workload: (where, task_sql) pairs."""
    out = []
    for i in range(cfg.n_tasks):
        where, _ = random_constraint(
            selectivity, seed=base_seed * 1000 + i, min_dims=min_dims
        )
        sql = (
            f"FORECAST SUM({measure}) FROM ads WHERE {where} "
            f"USING (0, {cfg.train_days - 1}) "
            f"OPTION (MODEL='arima', FORE_PERIOD={cfg.horizon})"
        )
        out.append((where, sql))
    return out


def future_truth(
    df: DataFrame, where: str | None, measure: str, cfg: ExpConfig
) -> np.ndarray:
    """True values of the forecast horizon (days train_days..+horizon-1)."""
    s = exact_series(df, where, measure, cfg.days)
    return s[cfg.train_days : cfg.train_days + cfg.horizon]


def fmt_table(pdf, *, floatfmt: str = "{:.3f}") -> str:
    """Render a pandas frame as the paper-style text table."""
    cols = list(pdf.columns)
    widths = [max(len(str(c)), 12) for c in cols]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(cols, widths))]
    for _, row in pdf.iterrows():
        cells = []
        for c, w in zip(cols, widths):
            v = row[c]
            cells.append(
                (floatfmt.format(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else str(v)).ljust(w)
            )
        lines.append("  ".join(cells))
    return "\n".join(lines)


def save_result(name: str, pdf, *, floatfmt: str = "{:.3f}") -> str:
    """Print a harness table and write it to ``RESULTS_DIR/<name>.txt``."""
    text = fmt_table(pdf, floatfmt=floatfmt)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
    return path
