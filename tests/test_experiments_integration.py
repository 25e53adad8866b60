"""Integration tests: each experiment harness runs end-to-end at tiny
scale and produces structurally correct, sane output. (Shape assertions
on the paper's orderings are the gates in benchmarks/bench_experiments.py,
which run each ``repro.experiments`` registry entry at its committed
scale, large enough for them to be stable.)"""
import pkgutil

import numpy as np
import pytest

from repro.experiments.common import ExpConfig, fmt_table, tasks_for
from repro.synth_data import ADS_MEASURES
from tests.conftest import DAYS, SF


@pytest.fixture(scope="module")
def tiny_cfg():
    # Reuse the session dataset: 30 days, train on 22, forecast 7.
    return ExpConfig(
        sf=0.01, days=DAYS, train_days=DAYS - 8, horizon=7, n_tasks=1,
        rates=(0.05, 0.2), selectivities=(0.05,),
        arima_kwargs={"max_p": 1, "max_q": 1, "max_d": 1},
    )


class TestTable1Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.table1 import run_table1

        t = run_table1(ads_df, tiny_cfg, rate=0.1)
        assert list(t["measure"]) == list(ADS_MEASURES)
        for col in ("Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"):
            assert (t[col] >= 0).all() and np.isfinite(t[col]).all()

    def test_paper_reference_shape(self):
        from repro.experiments.table1 import PAPER_TABLE1

        # The recorded paper numbers themselves satisfy the claimed order.
        means = PAPER_TABLE1[["Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"]].mean()
        assert means["Full"] <= means["Opt-GSW"] <= means["C-GSW"]
        assert means["C-GSW"] <= means["Uniform"] <= means["PIM"]


class TestExp2Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.exp2_response import run_exp2

        t = run_exp2(ads_df, tiny_cfg, repeats=1)
        assert set(t["source"]) == {"full", "opt@0.05", "opt@0.2"}
        assert (t["agg_ms"] > 0).all() and (t["arima_ms"] > 0).all()


class TestExp3Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.exp3_train_days import run_exp3

        t = run_exp3(ads_df, tiny_cfg, train_days_sweep=(10, 20), models=("arima",))
        assert len(t) == len(tiny_cfg.rates) * 2
        assert (t["fc_err"] >= 0).all()


class TestExp4Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.exp4_sweep import SAMPLERS, run_exp4

        t = run_exp4(ads_df, tiny_cfg, measure="favorite", model="arima")
        assert set(t["sampler"]) == set(SAMPLERS)
        assert len(t) == len(SAMPLERS) * len(tiny_cfg.rates) * len(tiny_cfg.selectivities)
        for col in ("agg_err", "fc_err", "interval_width"):
            assert np.isfinite(t[col]).all()


class TestExp5Harness:
    def test_structure_and_bounds(self, ads_df, tiny_cfg):
        from repro.experiments.exp5_space import run_exp5

        t, verify = run_exp5(ads_df, tiny_cfg, verify_rate=None)
        assert verify is None
        assert (t["size_ratio"] > 1.0).all()
        assert (t["size_ratio"] < len(ADS_MEASURES) + 1e-9).all()
        # per-measure optimal sizes sum to the reported total
        per = t[[f"opt_size_{m}" for m in ADS_MEASURES]].sum(axis=1)
        assert np.allclose(per, t["total_opt_size"])


class TestFig6Harness:
    def test_structure(self, ads_df, tiny_cfg):
        from repro.experiments.fig6_grouping import run_fig6, two_groupings

        assert len(two_groupings()) == 3
        t = run_fig6(ads_df, tiny_cfg, rate=0.1)
        assert len(t) == 12  # 3 groupings × 4 measures
        assert (t["l1_distance"] >= 0).all() and (t["agg_err"] >= 0).all()


@pytest.mark.parametrize("harness", ["exp5", "fig6"])
def test_harness_pass_has_no_ingest_lineage(ads_df, tiny_cfg, monkeypatch, harness):
    """Every frame Exp-V and Fig-6 scan is a ``FlashP``'s ``scan``: none
    holds the ingest's Arrow batches in a ``ParallelCollectionRDD`` that
    every task would ship."""
    from repro.core import pipeline
    from repro.experiments import exp5_space, fig6_grouping

    if harness == "exp5":
        passes = [(exp5_space, a) for a in ("exact_series", "gsw_sample", "measure_matrix")]
        run = lambda: exp5_space.run_exp5(ads_df, tiny_cfg, verify_rate=tiny_cfg.rates[0])
    else:
        passes = [(fig6_grouping, "exact_series"), (fig6_grouping, "measure_matrix"),
                  (pipeline, "gsw_sample")]
        run = lambda: fig6_grouping.run_fig6(ads_df, tiny_cfg, rate=0.1)
    lineages = []
    for owner, attr in passes:
        def spy(df, *args, _orig=getattr(owner, attr), _attr=attr, **kwargs):
            lineages.append((_attr, df.rdd.toDebugString()))
            return _orig(df, *args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    assert b"ParallelCollectionRDD" in ads_df.rdd.toDebugString()
    run()
    assert {attr for attr, _ in lineages} == {attr for _, attr in passes}
    for attr, lineage in lineages:
        assert b"ParallelCollectionRDD" not in lineage, attr


class TestCommonHelpers:
    def test_tasks_for_shapes(self, tiny_cfg):
        tasks = tasks_for(tiny_cfg, selectivity=0.05, measure="click", base_seed=1)
        assert len(tasks) == tiny_cfg.n_tasks
        where, sql = tasks[0]
        assert "FORECAST SUM(click)" in sql and where in sql

    def test_fmt_table_roundtrip(self):
        import pandas as pd

        t = pd.DataFrame({"a": [1.23456, 2.0], "b": ["x", "y"]})
        s = fmt_table(t)
        assert "1.235" in s and "x" in s

    def test_config_presets(self):
        # The defaults are the committed scale that the registry's entries
        # start from.
        assert ExpConfig().sf == 0.1


class TestEntryPoint:
    def test_registry_covers_every_harness(self):
        import repro.experiments as pkg
        from repro.experiments.__main__ import EXPERIMENTS

        harnesses = {m.name for m in pkgutil.iter_modules(pkg.__path__)} - {"common", "__main__"}
        assert set(EXPERIMENTS) == harnesses

    def test_gates_cover_every_experiment(self):
        import benchmarks.bench_experiments as bench
        from repro.experiments.__main__ import EXPERIMENTS

        assert set(bench.GATES) == set(EXPERIMENTS)

    def test_main_writes_table(self, spark, monkeypatch, tmp_path):
        from repro.experiments import common
        from repro.experiments.__main__ import main

        monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
        tables = main(["exp5_space", "--sf", str(SF), "--days", str(DAYS),
                       "--train-days", str(DAYS - 8), "--n-tasks", "1"])
        # Exactly the entry's tables: the sizes, projected to the five
        # committed columns, and the empirical verification.
        assert list(tables) == ["exp5_space", "exp5_space_verify"]
        assert sorted(tmp_path.iterdir()) == [
            tmp_path / "exp5_space.txt", tmp_path / "exp5_space_verify.txt"
        ]
        lines = (tmp_path / "exp5_space.txt").read_text().splitlines()
        assert "size_ratio" in lines[0]
        assert lines[0].split() == [
            "cgsw_rate", "cgsw_size", "total_opt_size", "size_ratio", "max_agg_rstd"
        ]
        assert len(lines) == 1 + len(ExpConfig().rates)
        verify = (tmp_path / "exp5_space_verify.txt").read_text().splitlines()
        assert verify[0].split() == ["measure", "agg_err_cgsw", "agg_err_opt"]
        assert len(verify) == 1 + len(ADS_MEASURES)
