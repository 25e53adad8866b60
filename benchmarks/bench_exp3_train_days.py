"""Benchmark for Exp-III / Figure 9: forecast error vs training days.

Shape to reproduce: more training days give lower / more stable forecast
error (paper: 150 days best for both ARIMA and LSTM).
"""
from repro.experiments.common import save_result
from repro.experiments.exp3_train_days import run_exp3


def test_exp3_train_days(benchmark, bench_df, bench_cfg):
    result = benchmark.pedantic(
        lambda: run_exp3(
            bench_df, bench_cfg,
            train_days_sweep=(30, 60, 100, 150),
            models=("arima", "lstm"),
        ),
        rounds=1, iterations=1,
    )
    save_result("exp3_train_days", result)

    for model in ("arima", "lstm"):
        sub = result[result["model"] == model]
        short = sub[sub["train_days"] == 30]["fc_err"].mean()
        long = sub[sub["train_days"] == 150]["fc_err"].mean()
        # 150 training days must beat 30 on average (paper's headline).
        assert long < short + 0.02
