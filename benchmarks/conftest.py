"""Benchmark fixtures: the SF=0.1 ads relation (15k rows/day × 165 days
≈ 2.5M rows) shared across all experiment benchmarks. Each benchmark
writes its table under results/ for EXPERIMENTS.md with
``repro.experiments.common.save_result``."""
import pytest

from repro.experiments.common import ExpConfig, load_ads


@pytest.fixture(scope="session")
def bench_cfg() -> ExpConfig:
    return ExpConfig()


@pytest.fixture(scope="session")
def bench_df(spark, bench_cfg):
    df = load_ads(spark, bench_cfg)
    yield df
    df.unpersist()
