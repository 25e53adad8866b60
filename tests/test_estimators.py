"""Tests for per-day aggregation (eq. 4), oracle-checked against DuckDB."""
import numpy as np
import pytest

from repro.core.estimators import (
    estimated_series,
    exact_series,
    relative_agg_error,
)
from repro.core.gsw import delta_for_rate, gsw_sample, optimal_weight
from repro.oracle import assert_equivalent
from repro.synth_data import random_constraint
from tests.conftest import DAYS


class TestExactSeries:
    @pytest.mark.parametrize(
        "where",
        [
            None,
            "gender IN (1)",
            "age_group IN (0, 1, 2) AND device IN (0)",
            "interest IN (2, 4) AND city_tier IN (1, 2, 3)",
        ],
    )
    def test_matches_duckdb(self, ads_df, ads_pdf, where):
        import duckdb

        got = exact_series(ads_df, where, "impression", DAYS)
        w = f"WHERE {where}" if where else ""
        rows = duckdb.sql(
            f"SELECT t, SUM(impression) s FROM ads_pdf {w} GROUP BY t"
        ).fetchall()
        want = np.zeros(DAYS)
        for t, s in rows:
            want[int(t)] = float(s)
        assert np.allclose(got, want)

    def test_spark_groupby_oracle(self, ads_df, ads_pdf):
        """The exact Catalyst plan (Filter→Aggregate) against the oracle."""
        from pyspark.sql import functions as F

        where = "gender IN (1) AND device IN (0, 1)"
        spark_df = (
            ads_df.where(where)
            .groupBy("t")
            .agg(F.sum("impression").alias("total"))
        )
        assert_equivalent(
            spark_df,
            f"SELECT t, SUM(impression) AS total FROM ads WHERE {where} GROUP BY t",
            ads=ads_pdf,
        )

    def test_dense_output_with_missing_days(self, ads_df):
        # An impossible constraint yields an all-zero series of full length.
        got = exact_series(ads_df, "gender IN (0) AND gender IN (1)", "impression", DAYS)
        assert got.shape == (DAYS,) and np.all(got == 0)

    def test_rejects_days_outside_range(self, ads_df):
        # The relation has DAYS days; a shorter series must not drop the rest.
        with pytest.raises(ValueError, match="outside"):
            exact_series(ads_df, None, "impression", DAYS - 1)

    def test_each_measure(self, ads_df, ads_pdf):
        for m in ("favorite", "click", "cart"):
            got = exact_series(ads_df, None, m, DAYS)
            want = ads_pdf.groupby("t")[m].sum().to_numpy(dtype=float)
            assert np.allclose(got, want)


class TestEstimatedSeries:
    def test_unsampled_estimate_vs_oracle(self, ads_df, ads_pdf):
        """HT estimate recomputed in DuckDB over the same sample rows."""
        import duckdb

        delta = delta_for_rate(ads_df, optimal_weight("impression"), 0.05)
        s = gsw_sample(ads_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=0)
        got = estimated_series(s, "gender IN (1)", "impression", DAYS)
        spdf = s.toPandas()
        rows = duckdb.sql(
            "SELECT t, SUM(impression_est) FROM spdf WHERE gender IN (1) GROUP BY t"
        ).fetchall()
        want = np.zeros(DAYS)
        for t, v in rows:
            want[int(t)] = float(v)
        assert np.allclose(got, want)

    def test_estimates_track_truth(self, ads_df):
        where, _ = random_constraint(0.1, seed=0)
        truth = exact_series(ads_df, where, "impression", DAYS)
        delta = delta_for_rate(ads_df, optimal_weight("impression"), 0.10)
        s = gsw_sample(ads_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=1).cache()
        est = estimated_series(s, where, "impression", DAYS)
        assert relative_agg_error(est, truth) < 0.5
        # correlated day-to-day: the estimated series follows the true one
        assert np.corrcoef(est, truth)[0, 1] > 0.5


class TestRelativeAggError:
    def test_zero_for_exact(self):
        t = np.array([1.0, 2.0, 3.0])
        assert relative_agg_error(t.copy(), t) == 0.0

    def test_simple_value(self):
        t = np.array([10.0, 10.0])
        e = np.array([11.0, 9.0])
        assert relative_agg_error(e, t) == pytest.approx(0.1)

    def test_skips_zero_truth_days(self):
        t = np.array([0.0, 10.0])
        e = np.array([5.0, 12.0])
        assert relative_agg_error(e, t) == pytest.approx(0.2)

    def test_all_zero_truth(self):
        assert relative_agg_error(np.zeros(3), np.zeros(3)) == 0.0
        assert relative_agg_error(np.ones(3), np.zeros(3)) == float("inf")
