"""Tests for the uniform and priority sampler baselines."""
import numpy as np
import pytest
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core.gsw import gsw_sample, increase_delta, uniform_sample
from repro.sampling.base import est_col, per_core, uniform, with_row_id
from repro.sampling.priority import priority_sample
from repro.synth_data import ADS_MEASURES
from tests.conftest import DAYS


class TestUniform:
    def test_rate_respected(self, ads_rid_df):
        s = uniform_sample(ads_rid_df, 0.1, measures=["impression"], seed=0)
        frac = s.count() / ads_rid_df.count()
        assert 0.08 <= frac <= 0.12

    def test_calibration_inverse_rate(self, ads_rid_df):
        s = uniform_sample(ads_rid_df, 0.25, measures=["impression"], seed=0)
        pdf = s.select("impression", est_col("impression")).toPandas()
        assert np.allclose(pdf[est_col("impression")], pdf["impression"] / 0.25)

    def test_unbiased_over_seeds(self, ads_rid_df, ads_pdf):
        truth = float(ads_pdf["impression"].sum())
        ests = [
            uniform_sample(ads_rid_df, 0.1, measures=["impression"], seed=s)
            .agg(F.sum(est_col("impression"))).first()[0]
            for s in range(8)
        ]
        assert abs(np.mean(ests) - truth) / truth < 0.1

    def test_all_measures_calibrated(self, ads_rid_df):
        s = uniform_sample(ads_rid_df, 0.1, measures=list(ADS_MEASURES), seed=0)
        for m in ADS_MEASURES:
            assert est_col(m) in s.columns

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_rejects_bad_rate(self, ads_rid_df, rate):
        with pytest.raises(ValueError):
            uniform_sample(ads_rid_df, rate, measures=["impression"], seed=0)

    def test_rate_one_keeps_almost_all(self, ads_rid_df):
        s = uniform_sample(ads_rid_df, 1.0, measures=["impression"], seed=0)
        assert s.count() == ads_rid_df.count()


class TestUniformIsConstantWeightGSW:
    """Uniform sampling is the GSW draw with w ≡ 1 and Δ = (1−r)/r."""

    @staticmethod
    def _rows(sample):
        pdf = sample.toPandas()
        return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)

    @pytest.mark.parametrize("rate", [0.005, 0.1, 0.5])
    def test_equals_gsw_draw(self, ads_rid_df, rate):
        unif = uniform_sample(ads_rid_df, rate, measures=["impression"], seed=3)
        gsw = gsw_sample(ads_rid_df, F.lit(1.0), (1 - rate) / rate,
                         measures=["impression"], seed=3)
        assert self._rows(unif).equals(self._rows(gsw))

    def test_increase_delta_equals_direct_draw(self, ads_rid_df):
        """Shrinking a uniform sample from rate r to r′ equals drawing at r′."""
        r, r2 = 0.2, 0.05
        s = uniform_sample(ads_rid_df, r, measures=["impression"], seed=6).cache()
        shrunk = increase_delta(s, (1 - r2) / r2, measures=["impression"])
        direct = uniform_sample(ads_rid_df, r2, measures=["impression"], seed=6)
        assert self._rows(shrunk).equals(self._rows(direct))
        s.unpersist()


def _priority_two_branches(df, k, *, measure, seed):
    """``priority_sample`` as a self-join of the ranked rows with their
    (k+1)-th priority per day: the reference for the one-shuffle draw."""
    m = F.col(measure).cast("double")
    with_q = per_core(df.withColumn("_q", m / uniform(seed)))
    ranked = with_q.withColumn(
        "_rn", F.row_number().over(Window.partitionBy("t").orderBy(F.desc("_q")))
    )
    tau = ranked.where(F.col("_rn") == k + 1).select("t", F.col("_q").alias("_tau"))
    return (
        ranked.where(F.col("_rn") <= k)
        .join(tau, on="t", how="left")
        .withColumn(est_col(measure), F.greatest(m, F.coalesce(F.col("_tau"), F.lit(0.0))))
        .drop("_q", "_rn", "_tau")
    )


class TestPriority:
    @pytest.mark.parametrize("k", [1, 40, 2000])
    @pytest.mark.parametrize("measure", ["impression", "click"])
    def test_same_sample_as_two_branch_draw(self, ads_wide_df, measure, k):
        """Same rows and bit-identical ``{m}_est`` as the self-join version
        (``click`` is 30% null; k = 2000 keeps every day whole, τ = 0)."""
        cols = ["t", "age_group", "gender", "occupation", measure, est_col(measure)]

        def rows(df):
            return df.select(*cols).toPandas().sort_values(cols, ignore_index=True)

        df = with_row_id(ads_wide_df)
        got = rows(priority_sample(df, k, measure=measure, seed=5))
        want = rows(_priority_two_branches(df, k, measure=measure, seed=5))
        assert len(got) > 0
        assert got.equals(want)

    def test_shuffles_once(self, ads_wide_df):
        s = priority_sample(with_row_id(ads_wide_df), 40, measure="impression", seed=0)
        s.collect()
        final = s._jdf.queryExecution().executedPlan()  # AdaptiveSparkPlan, once run
        plan = final.executedPlan().toString()
        assert plan.count("Exchange hashpartitioning") == 1, plan

    def test_exactly_k_rows_per_day(self, ads_rid_df):
        k = 40
        s = priority_sample(ads_rid_df, k, measure="impression", seed=0)
        per_day = s.groupBy("t").count().toPandas()
        assert (per_day["count"] == k).all()
        assert len(per_day) == DAYS

    def test_keeps_whole_day_when_k_large(self, spark):
        import pandas as pd

        pdf = pd.DataFrame({"t": [0, 0, 0], "impression": [1.0, 2.0, 3.0]})
        df = with_row_id(spark.createDataFrame(pdf))
        s = priority_sample(df, 10, measure="impression", seed=0)
        got = s.select("impression", est_col("impression")).toPandas()
        # All 3 rows kept; τ = 0 → estimator is exact.
        assert len(got) == 3
        assert np.allclose(
            np.sort(got[est_col("impression")]), np.sort(got["impression"])
        )

    def test_estimator_is_max_of_measure_and_tau(self, ads_rid_df):
        s = priority_sample(ads_rid_df, 25, measure="impression", seed=1)
        pdf = s.select("impression", est_col("impression")).toPandas()
        assert (pdf[est_col("impression")] >= pdf["impression"] - 1e-9).all()

    def test_unbiased_total_over_seeds(self, ads_rid_df, ads_pdf):
        truth = float(ads_pdf["impression"].sum())
        ests = [
            priority_sample(ads_rid_df, 60, measure="impression", seed=s)
            .agg(F.sum(est_col("impression"))).first()[0]
            for s in range(8)
        ]
        assert abs(np.mean(ests) - truth) / truth < 0.1

    def test_rstd_near_theoretical_optimum(self, ads_rid_df, ads_pdf):
        """Priority sampling: RSTD ≈ sqrt(1/(k-1)) per day; the full-table
        estimate over D days has RSTD ≈ sqrt(1/(D(k-1)))."""
        truth = float(ads_pdf["impression"].sum())
        k = 50
        errs = [
            (priority_sample(ads_rid_df, k, measure="impression", seed=s)
             .agg(F.sum(est_col("impression"))).first()[0] - truth) / truth
            for s in range(10)
        ]
        rstd = float(np.sqrt(np.mean(np.square(errs))))
        cap = np.sqrt(1.0 / (DAYS * (k - 1)))
        assert rstd <= 3 * cap

    def test_prefers_heavy_rows(self, ads_rid_df, ads_pdf):
        """Weighted sampling: the sample mean measure ≫ population mean."""
        s = priority_sample(ads_rid_df, 30, measure="impression", seed=2)
        samp_mean = s.agg(F.avg("impression")).first()[0]
        assert samp_mean > 3 * ads_pdf["impression"].mean()

    def test_rejects_bad_k(self, ads_rid_df):
        with pytest.raises(ValueError):
            priority_sample(ads_rid_df, 0, measure="impression", seed=0)

    def test_deterministic_given_seed(self, ads_rid_df):
        a = priority_sample(ads_rid_df, 20, measure="impression", seed=3)
        b = priority_sample(ads_rid_df, 20, measure="impression", seed=3)
        sa = a.agg(F.sum(est_col("impression"))).first()[0]
        sb = b.agg(F.sum(est_col("impression"))).first()[0]
        assert sa == pytest.approx(sb)
