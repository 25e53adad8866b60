"""Benchmark + reproduction harness for Exp-I / Table 1.

Regenerates the paper's summary table (forecast error per measure for
Full / PIM / Uniform / Opt-GSW / C-GSW with ARIMA) on the synthetic ads
relation and records it to results/table1.txt.
"""
import dataclasses

from repro.experiments.common import save_result
from repro.experiments.table1 import PAPER_TABLE1, run_table1


def test_table1(benchmark, bench_df, bench_cfg):
    cfg = dataclasses.replace(bench_cfg, n_tasks=4)
    result = benchmark.pedantic(
        lambda: run_table1(bench_df, cfg, rate=0.05), rounds=1, iterations=1
    )
    save_result("table1", result)
    save_result("table1_paper", PAPER_TABLE1)

    # Shape checks (averaged over measures; the paper's ordering):
    means = result[["Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"]].mean()
    assert (result[["Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"]] > 0).all().all()
    # PIM (systematically biased) must be the worst method on average.
    assert means["PIM"] > means["Opt-GSW"]
    assert means["PIM"] > means["C-GSW"]
    # Sampling-based methods stay in the same error regime as Full.
    assert means["Opt-GSW"] < 3 * means["Full"] + 0.1
