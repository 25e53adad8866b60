"""Run one experiment at its committed scale and write its tables to
``results/<table>.txt``:

    PYTHONPATH=src python -m repro.experiments table1

``EXPERIMENTS`` is the one place that says how each experiment runs: its
``ExpConfig``, its harness keywords and every table it writes. The flags
override the entry's ``ExpConfig``. ``benchmarks/bench_experiments.py``
runs the same entries through ``run_experiment`` and checks the paper's
shapes on the tables. The Spark driver's settings (master, memory) come
from pyspark's usual ``PYSPARK_SUBMIT_ARGS``.
"""
from __future__ import annotations

import argparse
import dataclasses
from typing import Callable, NamedTuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.common import ExpConfig, load_ads, save_result
from repro.experiments.exp2_response import PAPER_EXP2, SF as EXP2_SF, run_exp2
from repro.experiments.exp3_train_days import run_exp3
from repro.experiments.exp4_sweep import run_exp4
from repro.experiments.exp5_space import run_exp5
from repro.experiments.fig6_grouping import run_fig6
from repro.experiments.table1 import PAPER_TABLE1, run_table1


class Table(NamedTuple):
    """One ``results/<name>.txt``: the columns it keeps (None keeps all)
    and its number format."""

    name: str
    cols: tuple[str, ...] | None = None
    floatfmt: str = "{:.3f}"


class Experiment(NamedTuple):
    # (df, cfg, **kwargs) -> one frame per table, in the order of `tables`
    # (a single frame for a single table).
    run: Callable[..., pd.DataFrame | tuple[pd.DataFrame, ...]]
    tables: tuple[Table, ...]
    cfg: ExpConfig = ExpConfig()
    kwargs: dict = {}


# Exp-IV as the paper plots it: Favorite and Impression with ARIMA, plus
# Favorite with LSTM.
EXP4_PARTS = (("favorite", "arima"), ("impression", "arima"), ("favorite", "lstm"))

EXPERIMENTS = {
    "table1": Experiment(
        lambda df, cfg, **kw: (run_table1(df, cfg, **kw), PAPER_TABLE1),
        (Table("table1"), Table("table1_paper")),
        cfg=ExpConfig(n_tasks=4), kwargs={"rate": 0.05},
    ),
    "exp2_response": Experiment(
        lambda df, cfg, **kw: (run_exp2(df, cfg, **kw), PAPER_EXP2),
        (Table("exp2_response", floatfmt="{:.1f}"), Table("exp2_paper", floatfmt="{:.1f}")),
        cfg=ExpConfig(sf=EXP2_SF), kwargs={"repeats": 5},
    ),
    "exp3_train_days": Experiment(
        run_exp3, (Table("exp3_train_days"),),
        kwargs={"train_days_sweep": (30, 60, 100, 150), "models": ("arima", "lstm")},
    ),
    "exp4_sweep": Experiment(
        lambda df, cfg: tuple(
            run_exp4(df, cfg, measure=m, model=model) for m, model in EXP4_PARTS
        ),
        tuple(Table(f"exp4_{m}_{model}") for m, model in EXP4_PARTS),
    ),
    "exp5_space": Experiment(
        run_exp5,
        (
            Table("exp5_space", cols=(
                "cgsw_rate", "cgsw_size", "total_opt_size", "size_ratio", "max_agg_rstd",
            )),
            Table("exp5_space_verify"),
        ),
        kwargs={"verify_rate": 0.02},
    ),
    "fig6_grouping": Experiment(run_fig6, (Table("fig6_grouping"),), kwargs={"rate": 0.02}),
}


def run_experiment(
    spark: SparkSession, name: str, cfg: ExpConfig | None = None
) -> dict[str, pd.DataFrame]:
    """Run one experiment on its own copy of the ads relation and write
    each of its tables with ``save_result``; returns the tables written,
    by name. ``cfg`` defaults to the entry's committed scale."""
    exp = EXPERIMENTS[name]
    cfg = exp.cfg if cfg is None else cfg
    df = load_ads(spark, cfg)
    try:
        frames = exp.run(df, cfg, **exp.kwargs)
    finally:
        df.unpersist()
    if isinstance(frames, pd.DataFrame):
        frames = (frames,)
    out = {}
    for table, frame in zip(exp.tables, frames, strict=True):
        out[table.name] = frame if table.cols is None else frame[list(table.cols)]
        save_result(table.name, out[table.name], floatfmt=table.floatfmt)
    return out


def main(argv: list[str] | None = None) -> dict[str, pd.DataFrame]:
    """Run the named experiment; returns the tables written, by name."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments", description="FlashP reproduction experiments"
    )
    ap.add_argument("name", choices=list(EXPERIMENTS))
    for flag, type_ in (("--sf", float), ("--days", int), ("--train-days", int),
                        ("--n-tasks", int), ("--seed", int)):
        ap.add_argument(flag, type=type_, help="default: the experiment's own")
    args = vars(ap.parse_args(argv))
    name = args.pop("name")
    cfg = dataclasses.replace(
        EXPERIMENTS[name].cfg, **{k: v for k, v in args.items() if v is not None}
    )
    spark = (
        SparkSession.builder.appName(f"flashp-{name}")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    return run_experiment(spark, name, cfg)


if __name__ == "__main__":
    main()
