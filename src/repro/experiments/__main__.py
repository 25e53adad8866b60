"""Run one experiment harness at a chosen scale and write its table to
``results/<name>.txt``:

    PYTHONPATH=src python -m repro.experiments table1 --sf 0.1 --n-tasks 5

The Spark driver's settings (master, memory) come from pyspark's usual
``PYSPARK_SUBMIT_ARGS``.
"""
from __future__ import annotations

import argparse
from typing import Callable, NamedTuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.experiments.common import ExpConfig, load_ads, save_result
from repro.experiments.exp2_response import SF as EXP2_SF, run_exp2
from repro.experiments.exp3_train_days import run_exp3
from repro.experiments.exp4_sweep import run_exp4
from repro.experiments.exp5_space import run_exp5
from repro.experiments.fig6_grouping import run_fig6
from repro.experiments.table1 import run_table1


class Experiment(NamedTuple):
    run: Callable[[DataFrame, ExpConfig], pd.DataFrame]
    sf: float = ExpConfig.sf          # scale used when --sf is not given
    floatfmt: str = "{:.3f}"


# Exp-IV as the paper plots it: Favorite and Impression with ARIMA, plus
# Favorite with LSTM.
EXP4_PARTS = (("favorite", "arima"), ("impression", "arima"), ("favorite", "lstm"))


def _exp4(df: DataFrame, cfg: ExpConfig) -> pd.DataFrame:
    parts = [run_exp4(df, cfg, measure=m, model=model) for m, model in EXP4_PARTS]
    return pd.concat(parts, ignore_index=True)


EXPERIMENTS = {
    "table1": Experiment(run_table1),
    "exp2_response": Experiment(run_exp2, sf=EXP2_SF, floatfmt="{:.1f}"),
    "exp3_train_days": Experiment(run_exp3),
    "exp4_sweep": Experiment(_exp4),
    "exp5_space": Experiment(run_exp5),
    "fig6_grouping": Experiment(run_fig6),
}


def main(argv: list[str] | None = None) -> str:
    """Run the named experiment; returns the path of the table written."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments", description="FlashP reproduction experiments"
    )
    ap.add_argument("name", choices=list(EXPERIMENTS))
    ap.add_argument("--sf", type=float, help="scale factor (default: the experiment's own)")
    ap.add_argument("--days", type=int, default=ExpConfig.days)
    ap.add_argument("--train-days", type=int, default=ExpConfig.train_days)
    ap.add_argument("--n-tasks", type=int, default=ExpConfig.n_tasks)
    ap.add_argument("--seed", type=int, default=ExpConfig.seed)
    args = ap.parse_args(argv)

    exp = EXPERIMENTS[args.name]
    cfg = ExpConfig(
        sf=exp.sf if args.sf is None else args.sf, days=args.days,
        train_days=args.train_days, n_tasks=args.n_tasks, seed=args.seed,
    )
    spark = (
        SparkSession.builder.appName(f"flashp-{args.name}")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    df = load_ads(spark, cfg)
    try:
        return save_result(args.name, exp.run(df, cfg), floatfmt=exp.floatfmt)
    finally:
        df.unpersist()


if __name__ == "__main__":
    main()
