"""Tests for the GSW sampler as a Spark DataFrame transform."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.gsw import (
    arithmetic_weight,
    delta_for_rate,
    geometric_weight,
    gsw_sample,
    increase_delta,
    optimal_weight,
    solve_delta,
)
from repro.sampling.base import est_col, with_row_id
from repro.synth_data import ADS_MEASURES
from repro.theory import bounds


class TestWeightExpressions:
    def test_optimal_weight_equals_measure(self, ads_df, ads_pdf):
        got = ads_df.select(optimal_weight("impression").alias("w")).toPandas()["w"]
        assert np.allclose(np.sort(got), np.sort(ads_pdf["impression"].astype(float)))

    def test_arithmetic_weight(self, ads_df, ads_pdf):
        got = ads_df.select(arithmetic_weight(list(ADS_MEASURES)).alias("w")).toPandas()["w"]
        want = ads_pdf[list(ADS_MEASURES)].mean(axis=1)
        assert np.allclose(np.sort(got), np.sort(want))

    def test_geometric_weight(self, ads_df, ads_pdf):
        got = ads_df.select(geometric_weight(list(ADS_MEASURES)).alias("w")).toPandas()["w"]
        want = np.exp(np.log(ads_pdf[list(ADS_MEASURES)].astype(float)).mean(axis=1))
        assert np.allclose(np.sort(got), np.sort(want), rtol=1e-9)


def _hist(w):
    """The (weights, counts) histogram ``solve_delta`` takes."""
    return np.unique(np.asarray(w, dtype="float64"), return_counts=True)


class TestZeroMeasures:
    @pytest.mark.parametrize("weighting", ["arithmetic", "geometric"])
    @pytest.mark.parametrize("missing", ["zero", "null"])
    def test_gsw_unbiased_with_missing_measures(self, spark, missing, weighting):
        """A zero or null in one measure must not drop the row's other
        measures: GSW over (a, b) with 30% of b zero or null stays unbiased
        for SUM(a)."""
        g = np.random.default_rng(0)
        n = 20_000
        a = np.floor(g.lognormal(3.0, 1.0, n)) + 1
        b = np.where(g.random(n) < 0.3, 0.0, np.floor(g.lognormal(3.0, 1.0, n)) + 1)
        df = with_row_id(spark.createDataFrame(pd.DataFrame({"a": a, "b": b})))
        if missing == "null":
            df = df.withColumn("b", F.when(F.col("b") > 0, F.col("b")))
            assert df.where(F.col("b").isNull()).count() == int((b == 0).sum())
        df = df.cache()
        if weighting == "arithmetic":
            w, w_np = arithmetic_weight(["a", "b"]), (a + b) / 2
        else:
            w, w_np = geometric_weight(["a", "b"]), np.where(b > 0, np.sqrt(a * b), a)
        assert df.where(w.isNull() | (w <= 0)).count() == 0
        delta = delta_for_rate(df, w, 0.05)
        ests = [
            gsw_sample(df, w, delta, measures=["a"], seed=seed)
            .agg(F.sum(est_col("a"))).first()[0]
            for seed in range(20)
        ]
        df.unpersist()
        rstd = bounds.rstd_exact(a, w_np, delta)
        rel = abs(np.mean(ests) - a.sum()) / a.sum()
        assert rel < 4 * rstd / np.sqrt(len(ests))


class TestGswSample:
    def test_keeps_input_columns(self, ads_rid_df):
        s = gsw_sample(ads_rid_df, optimal_weight("impression"), 500.0,
                       measures=["impression"], seed=0)
        for c in ads_rid_df.columns:
            assert c in s.columns
        assert est_col("impression") in s.columns and "_w" in s.columns

    def test_calibrated_measure_formula(self, ads_rid_df):
        delta = 500.0
        s = gsw_sample(ads_rid_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=0)
        pdf = s.select("impression", "_w", est_col("impression")).toPandas()
        want = pdf["impression"] * (delta + pdf["_w"]) / pdf["_w"]
        assert np.allclose(pdf[est_col("impression")], want)

    def test_sample_size_near_expectation(self, ads_rid_df, ads_pdf):
        delta = 500.0
        w = optimal_weight("impression")
        es = bounds.expected_sample_size(ads_pdf["impression"].to_numpy(float), delta)
        got = gsw_sample(ads_rid_df, w, delta, measures=["impression"], seed=3).count()
        # Binomial concentration: within 5 std devs.
        assert abs(got - es) < 5 * np.sqrt(es) + 5

    def test_estimate_unbiased_over_seeds(self, ads_rid_df, ads_pdf):
        """Mean of M̂ over independent seeds converges to M."""
        truth = float(ads_pdf["impression"].sum())
        delta = float(ads_pdf["impression"].sum()) / (0.02 * len(ads_pdf))
        w = optimal_weight("impression")
        ests = []
        for seed in range(8):
            s = gsw_sample(ads_rid_df, w, delta, measures=["impression"], seed=seed)
            ests.append(s.agg(F.sum(est_col("impression"))).first()[0])
        rel = abs(np.mean(ests) - truth) / truth
        # 8 seeds of a ~900-row expected sample: mean within ~3 RSTD/√8.
        assert rel < 3 * np.sqrt(1 / 900) / np.sqrt(8) + 0.02

    def test_deterministic_given_seed_and_row_ids(self, ads_rid_df):
        w = optimal_weight("impression")
        a = gsw_sample(ads_rid_df, w, 500.0, measures=["impression"], seed=5).count()
        b = gsw_sample(ads_rid_df, w, 500.0, measures=["impression"], seed=5).count()
        assert a == b

    def test_different_seeds_differ(self, ads_rid_df):
        w = optimal_weight("impression")
        a = gsw_sample(ads_rid_df, w, 500.0, measures=["impression"], seed=1)
        b = gsw_sample(ads_rid_df, w, 500.0, measures=["impression"], seed=2)
        sa = a.agg(F.sum(est_col("impression"))).first()[0]
        sb = b.agg(F.sum(est_col("impression"))).first()[0]
        assert sa != sb

    def test_multiple_measures_one_sample(self, ads_rid_df):
        s = gsw_sample(ads_rid_df, arithmetic_weight(list(ADS_MEASURES)), 200.0,
                       measures=list(ADS_MEASURES), seed=0)
        for m in ADS_MEASURES:
            assert est_col(m) in s.columns

    def test_rejects_bad_delta(self, ads_rid_df):
        with pytest.raises(ValueError):
            gsw_sample(ads_rid_df, optimal_weight("impression"), 0.0,
                       measures=["impression"], seed=0)

    def test_rejects_empty_measures(self, ads_rid_df):
        with pytest.raises(ValueError):
            gsw_sample(ads_rid_df, optimal_weight("impression"), 1.0, measures=[], seed=0)

    def test_heavy_rows_almost_always_sampled(self, ads_rid_df, ads_pdf):
        """Rows with w ≫ Δ are included with probability ≈ 1."""
        delta = 10.0
        big = int((ads_pdf["impression"] > 1000).sum())
        if big == 0:
            pytest.skip("no heavy rows at this SF")
        s = gsw_sample(ads_rid_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=7)
        got = s.where("impression > 1000").count()
        assert got >= 0.95 * big


class TestSolveDelta:
    def test_hits_target_size(self, ads_pdf):
        w = ads_pdf["impression"].to_numpy(float)
        target = 0.03 * len(w)
        delta = solve_delta(*_hist(w), target)
        es = bounds.expected_sample_size(w, delta)
        assert abs(es - target) <= 0.05 * target

    def test_rate_wrapper(self, ads_df, ads_pdf):
        w = arithmetic_weight(list(ADS_MEASURES))
        delta = delta_for_rate(ads_df, w, 0.02)
        es = bounds.expected_sample_size(ads_pdf[list(ADS_MEASURES)].mean(axis=1), delta)
        assert abs(es - 0.02 * ads_df.count()) <= 0.05 * 0.02 * ads_df.count()

    def test_larger_rate_smaller_delta(self, ads_df):
        w = optimal_weight("impression")
        d_small = delta_for_rate(ads_df, w, 0.01)
        d_big = delta_for_rate(ads_df, w, 0.10)
        assert d_big < d_small

    def test_rate_one_keeps_everything(self, ads_df, ads_rid_df):
        w = optimal_weight("impression")
        delta = delta_for_rate(ads_df, w, 1.0)
        s = gsw_sample(ads_rid_df, w, delta, measures=["impression"], seed=0)
        assert s.count() >= 0.99 * ads_df.count()

    def test_raises_when_not_converged(self, ads_pdf):
        w = ads_pdf["impression"].to_numpy(float)
        with pytest.raises(RuntimeError, match="solve_delta"):
            solve_delta(*_hist(w), 0.03 * len(w), max_iter=1, rtol=1e-12)

    def test_rejects_nonpositive_target(self, ads_pdf):
        with pytest.raises(ValueError):
            solve_delta(*_hist(ads_pdf["impression"]), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_rejects_nan_or_negative_weight(self, bad):
        with pytest.raises(ValueError, match="weights"):
            solve_delta(np.array([1.0, 2.0, bad]), np.array([5, 5, 1]), 3.0)

    @pytest.mark.parametrize("rate", [0.005, 0.02, 0.10])
    def test_tight_rtol_hits_target(self, ads_pdf, rate):
        w = ads_pdf[list(ADS_MEASURES)].mean(axis=1).to_numpy()
        target = rate * len(w)
        delta = solve_delta(*_hist(w), target, rtol=1e-12)
        assert abs(bounds.expected_sample_size(w, delta) - target) <= 1e-9 * target

    @pytest.mark.parametrize("weighting", ["optimal", "arithmetic", "geometric"])
    def test_rate_wrapper_solves_the_weight_histogram(self, ads_df, ads_pdf, weighting):
        """``delta_for_rate`` is ``solve_delta`` on the table's weights."""
        ms = ads_pdf[list(ADS_MEASURES)].to_numpy(float)
        w, w_np = {
            "optimal": (optimal_weight("impression"), ads_pdf["impression"].to_numpy(float)),
            "arithmetic": (arithmetic_weight(list(ADS_MEASURES)), ms.mean(axis=1)),
            "geometric": (geometric_weight(list(ADS_MEASURES)), np.exp(np.log(ms).mean(axis=1))),
        }[weighting]
        got = delta_for_rate(ads_df, w, 0.02)
        want = solve_delta(*_hist(w_np), 0.02 * len(w_np))
        assert got == pytest.approx(want, rel=1e-12)

    def test_rate_wrapper_runs_at_most_two_spark_jobs(self, spark, ads_df):
        sc, group = spark.sparkContext, "test-delta-for-rate"
        sc.setLocalProperty("spark.jobGroup.id", group)
        try:
            delta_for_rate(ads_df, arithmetic_weight(list(ADS_MEASURES)), 0.02)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert 1 <= len(sc.statusTracker().getJobIdsForGroup(group)) <= 2


class TestIncreaseDelta:
    def test_shrinks_sample(self, ads_rid_df):
        w = optimal_weight("impression")
        s1 = gsw_sample(ads_rid_df, w, 100.0, measures=["impression"], seed=0).cache()
        s2 = increase_delta(s1, 1000.0, measures=["impression"])
        assert 0 < s2.count() < s1.count()

    def test_matches_direct_draw(self, ads_rid_df):
        """Shrinking Δ→Δ′ must equal sampling at Δ′ directly (same seed)."""
        w = optimal_weight("impression")
        s1 = gsw_sample(ads_rid_df, w, 100.0, measures=["impression"], seed=4).cache()
        shrunk = increase_delta(s1, 800.0, measures=["impression"])
        direct = gsw_sample(ads_rid_df, w, 800.0, measures=["impression"], seed=4)
        assert shrunk.count() == direct.count()
        a = shrunk.agg(F.sum(est_col("impression"))).first()[0]
        b = direct.agg(F.sum(est_col("impression"))).first()[0]
        assert a == pytest.approx(b)

    def test_recalibrates_estimates(self, ads_rid_df):
        w = optimal_weight("impression")
        s1 = gsw_sample(ads_rid_df, w, 100.0, measures=["impression"], seed=0).cache()
        s2 = increase_delta(s1, 500.0, measures=["impression"])
        pdf = s2.select("impression", "_w", est_col("impression")).toPandas()
        want = pdf["impression"] * (500.0 + pdf["_w"]) / pdf["_w"]
        assert np.allclose(pdf[est_col("impression")], want)

    def test_keeps_row_drawn_at_p_zero(self, spark):
        """``_p = 0`` must not divide by zero (Spark's default ANSI mode
        raises on it); such a row survives any Δ′."""
        sample = spark.createDataFrame(
            pd.DataFrame({"impression": [5.0], "_w": [5.0], "_p": [0.0]})
        )
        pdf = increase_delta(sample, 10.0, measures=["impression"]).toPandas()
        assert len(pdf) == 1
        assert pdf[est_col("impression")].iloc[0] == pytest.approx(5.0 * 15.0 / 5.0)

    def test_noop_when_delta_unchanged(self, ads_rid_df):
        w = optimal_weight("impression")
        s1 = gsw_sample(ads_rid_df, w, 300.0, measures=["impression"], seed=0).cache()
        s2 = increase_delta(s1, 300.0, measures=["impression"])
        assert s2.count() == s1.count()


class TestAgainstTheory:
    def test_spark_estimator_rstd_within_theorem3(self, ads_rid_df, ads_pdf):
        """Empirical RSTD over seeds obeys Theorem 3 for w = m."""
        m = ads_pdf["impression"].to_numpy(dtype=float)
        delta = float(m.sum() / (0.05 * len(m)))
        es = bounds.expected_sample_size(m, delta)
        cap = bounds.rstd_bound(1.0, es)
        truth = m.sum()
        w = optimal_weight("impression")
        sq = []
        for seed in range(10):
            s = gsw_sample(ads_rid_df, w, delta, measures=["impression"], seed=seed)
            est = s.agg(F.sum(est_col("impression"))).first()[0]
            sq.append(((est - truth) / truth) ** 2)
        rstd_emp = float(np.sqrt(np.mean(sq)))
        # 10 seeds: allow 2x slack on the bound.
        assert rstd_emp <= 2 * cap
