"""Benchmark for the §4.2 grouping evaluation / Figure 6.

Shape to reproduce: within each way of grouping the 4 measures into two
pairs, per-measure aggregation error and the L1 distance between the
measure vector and its group's sampling-weight vector follow the same
trend (small L1 → small error).
"""
import numpy as np

from repro.experiments.common import save_result
from repro.experiments.fig6_grouping import run_fig6


def test_fig6_grouping(benchmark, bench_df, bench_cfg):
    result = benchmark.pedantic(
        lambda: run_fig6(bench_df, bench_cfg, rate=0.02), rounds=1, iterations=1
    )
    save_result("fig6_grouping", result)

    # Rank correlation between L1 distance and aggregation error across
    # all (grouping, measure) cells — the paper's "similar trends".
    l1 = result["l1_distance"].rank()
    err = result["agg_err"].rank()
    rho = np.corrcoef(l1, err)[0, 1]
    assert rho > 0.2
