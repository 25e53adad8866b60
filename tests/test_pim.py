"""Tests for the PIM (Partwise Independence Model) baseline."""
import numpy as np
import pytest

from repro.baselines.pim import PIM
from repro.core.estimators import exact_series, relative_agg_error
from repro.synth_data import ADS_DIMS, ADS_MEASURES
from tests.conftest import DAYS


@pytest.fixture(scope="module")
def pim(ads_df):
    return PIM(ads_df, list(ADS_MEASURES), days=DAYS)


class TestMarginals:
    def test_totals_match_groupby(self, pim, ads_pdf):
        want = ads_pdf.groupby("t")["impression"].sum().to_numpy(dtype=float)
        assert np.allclose(pim.totals["impression"], want)

    def test_marginals_sum_to_total(self, pim):
        for dim in ("gender", "age_group", "interest"):
            marg = pim.marginals["impression"][dim]
            assert np.allclose(marg.sum(axis=1), pim.totals["impression"])

    def test_marginal_values_match_pandas(self, pim, ads_pdf):
        want = (
            ads_pdf[ads_pdf["gender"] == 1].groupby("t")["click"].sum()
            .to_numpy(dtype=float)
        )
        assert np.allclose(pim.marginals["click"]["gender"][:, 1], want)


class TestBuild:
    def test_one_scan(self, spark, ads_df):
        sc, group = spark.sparkContext, "test-pim-build"
        sc.setLocalProperty("spark.jobGroup.id", group)
        try:
            PIM(ads_df, list(ADS_MEASURES), days=DAYS)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert 1 <= len(sc.statusTracker().getJobIdsForGroup(group)) <= 2

    def test_rejects_days_outside_range(self, ads_df):
        with pytest.raises(ValueError, match="outside"):
            PIM(ads_df, ["impression"], days=DAYS - 1)

    def test_rejects_codes_outside_cardinality(self, spark, ads_pdf):
        bad = ads_pdf.head(50).copy()
        bad.loc[3, "gender"] = ADS_DIMS["gender"]
        with pytest.raises(ValueError, match="gender"):
            PIM(spark.createDataFrame(bad), ["impression"], days=DAYS)


class TestEstimates:
    def test_no_constraint_is_exact(self, pim, ads_df):
        truth = exact_series(ads_df, None, "impression", DAYS)
        assert np.allclose(pim.estimate_series(None, "impression"), truth)

    def test_single_dim_constraint_is_exact(self, pim, ads_df):
        # One marginal ratio: no independence assumption involved.
        where = "gender IN (1)"
        truth = exact_series(ads_df, where, "impression", DAYS)
        assert np.allclose(pim.estimate_series(where, "impression"), truth)

    def test_single_dim_multivalue_exact(self, pim, ads_df):
        where = "interest IN (0, 3, 7)"
        truth = exact_series(ads_df, where, "click", DAYS)
        assert np.allclose(pim.estimate_series(where, "click"), truth)

    def test_interacting_dims_are_biased(self, pim, ads_df):
        """Multi-dim constraints hit the independence assumption: the ads
        generator's dim×dim interactions make PIM systematically wrong."""
        errs = []
        for where in (
            "gender IN (1) AND interest IN (0, 1, 2)",
            "age_group IN (0, 1) AND marital IN (1)",
            "os IN (0) AND membership IN (1, 2)",
        ):
            truth = exact_series(ads_df, where, "impression", DAYS)
            est = pim.estimate_series(where, "impression")
            errs.append(relative_agg_error(est, truth))
        assert max(errs) > 0.05  # visibly biased somewhere

    def test_bias_is_systematic_not_noise(self, pim, ads_df):
        """PIM's error is a stable multiplicative bias across days (unlike
        sampling noise): the per-day ratio est/truth has tiny spread."""
        where = "gender IN (1) AND interest IN (0, 1, 2)"
        truth = exact_series(ads_df, where, "impression", DAYS)
        est = pim.estimate_series(where, "impression")
        ratio = est / truth
        assert np.std(ratio) < 0.2 * abs(np.mean(ratio) - 0) + 0.1

    def test_unknown_measure_rejected(self, pim):
        with pytest.raises(ValueError):
            pim.estimate_series("gender IN (1)", "revenue")

    def test_all_measures_available(self, pim):
        for m in ADS_MEASURES:
            est = pim.estimate_series("device IN (0)", m)
            assert est.shape == (DAYS,) and (est >= 0).all()
