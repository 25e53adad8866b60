"""Every Spark pass over the table runs one map task per core
(``sampling.base.per_core``), and the coalesce that does it leaves every
sample's draw unchanged. FlashP's rand-free passes read its per-core copy
of the relation, ``FlashP.scan``, which answers them bit for bit as the
caller's frame does and holds no lineage back to the ingest."""
from contextlib import closing

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.pim import PIM
from repro.core import estimators
from repro.core.estimators import exact_series
from repro.core.gsw import (
    arithmetic_weight,
    delta_for_rate,
    gsw_sample,
    optimal_weight,
    uniform_sample,
)
from repro.core.pipeline import FlashP
from repro.sampling.base import est_col
from repro.sampling.priority import priority_sample
from repro.synth_data import ADS_DIMS, ADS_MEASURES
from tests.conftest import DAYS, WIDE_PARTITIONS

ARIMA_FAST = {"max_p": 1, "max_q": 1, "max_d": 1}


def _with_flashp(df, call):
    """``call(fp)`` on a new ``FlashP`` over ``df``, closed afterwards."""
    with closing(FlashP(df, days=DAYS)) as fp:
        return call(fp)


SCANS = {
    "exact_series": lambda df: exact_series(df, "gender IN (1)", "click", DAYS),
    "delta_for_rate": lambda df: delta_for_rate(df, optimal_weight("impression"), 0.1),
    "pim": lambda df: PIM(df, list(ADS_MEASURES), days=DAYS),
    "add_uniform_sample": lambda df: _with_flashp(
        df, lambda fp: fp.add_uniform_sample("u", rate=0.1)),
    "flashp_full": lambda df: _with_flashp(df, lambda fp: fp.run(
        "FORECAST SUM(click) FROM ads WHERE gender IN (1) USING (0, 21)",
        source="full", arima_kwargs=ARIMA_FAST)),
}


@pytest.mark.parametrize("name", SCANS)
def test_scan_runs_one_task_per_core(spark, ads_wide_df, name):
    sc, group = spark.sparkContext, f"test-per-core-{name}"
    assert ads_wide_df.rdd.getNumPartitions() == WIDE_PARTITIONS > sc.defaultParallelism
    sc.setLocalProperty("spark.jobGroup.id", group)
    try:
        SCANS[name](ads_wide_df)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    assert jobs
    # A job's parent stages get lower ids than the stages that read them,
    # so each job's first stage is the one that scans its input: FlashP's
    # copy of the table as well as the table itself.
    for j in jobs:
        first = min(tracker.getJobInfo(j).stageIds)
        assert tracker.getStageInfo(first).numTasks <= sc.defaultParallelism


def _sorted(pdf: pd.DataFrame) -> pd.DataFrame:
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


class TestSamplesUnchanged:
    """The store holds the same rows, with bit-identical ``{m}_est``, as the
    same draw collected without a coalesce: the coalesce sits above every
    ``rand``, which is seeded per input partition. The frame has many more
    partitions than cores, so a coalesce below ``rand`` would change it."""

    RATE, SEED = 0.1, 11

    @staticmethod
    def _check(stored: pd.DataFrame, direct) -> None:
        assert len(stored) > 0
        assert _sorted(stored).equals(_sorted(direct.select(*stored.columns).toPandas()))

    @pytest.mark.parametrize("weights", ["impression", list(ADS_MEASURES)], ids=["optimal", "arithmetic"])
    def test_gsw(self, ads_wide_df, weights):
        stored = _with_flashp(ads_wide_df, lambda fp: fp.add_gsw_sample(
            "g", rate=self.RATE, weights=weights, seed=self.SEED))
        if isinstance(weights, str):
            w, measures = optimal_weight(weights), [weights]
        else:
            w, measures = arithmetic_weight(weights), weights
        delta = delta_for_rate(ads_wide_df, w, self.RATE)
        self._check(stored, gsw_sample(ads_wide_df, w, delta, measures=measures, seed=self.SEED))

    def test_uniform(self, ads_wide_df):
        stored = _with_flashp(ads_wide_df, lambda fp: fp.add_uniform_sample(
            "u", rate=self.RATE, seed=self.SEED))
        self._check(stored, uniform_sample(
            ads_wide_df, self.RATE, measures=list(ADS_MEASURES), seed=self.SEED))

    @pytest.mark.parametrize("measure", ["impression", "click"])
    def test_priority(self, ads_wide_df, measure):
        stored = _with_flashp(ads_wide_df, lambda fp: fp.add_priority_sample(
            "p", rate=self.RATE, measure=measure, seed=self.SEED))
        k = max(1, round(self.RATE * ads_wide_df.count() / DAYS))
        self._check(stored, priority_sample(ads_wide_df, k, measure=measure, seed=self.SEED))

    @pytest.mark.parametrize("measure", ["impression", "click"])
    def test_priority_matches_its_definition(self, ads_wide_df, measure):
        """``priority_sample`` against the priorities ``m / rand(seed)``
        drawn on the uncoalesced table and ranked in pandas: the ``k``
        largest per day, with ``m̂ = max(m, τ)`` for τ the (k+1)-th."""
        k = 40
        cols = ["t", *ADS_DIMS, est_col(measure)]
        m = F.col(measure).cast("double")
        q = ads_wide_df.select("t", *ADS_DIMS, m.alias("m"), (m / F.rand(self.SEED)).alias("q"))
        want = []
        for _, day in q.toPandas().groupby("t"):
            top = day.sort_values("q", ascending=False, na_position="last")
            tau = top["q"].iloc[k]
            want.append(top.head(k).assign(**{est_col(measure): np.fmax(top["m"].head(k), tau)}))
        got = priority_sample(ads_wide_df, k, measure=measure, seed=self.SEED)
        got = got.select(*cols).toPandas()
        assert _sorted(got).equals(_sorted(pd.concat(want)[cols]))


class TestScanCopy:
    """FlashP's rand-free passes read ``FlashP.scan``, one partition per core
    where the caller's frame has many, and answer exactly as the same passes
    over the caller's frame: the sums add integer measures as doubles, which
    is exact in any order, and the weight histogram is sorted before use."""

    @pytest.fixture(scope="class")
    def fp(self, ads_wide_df):
        with closing(FlashP(ads_wide_df, days=DAYS)) as fp:
            assert fp.scan.rdd.getNumPartitions() < ads_wide_df.rdd.getNumPartitions()
            yield fp

    @pytest.mark.parametrize("measure", ADS_MEASURES)
    def test_full_source_series(self, fp, ads_wide_df, measure):
        where = "age_group IN (0, 2, 5) AND city_tier IN (1, 3)"
        o = fp.run(f"FORECAST SUM({measure}) FROM ads WHERE {where} USING (0, 21)",
                   source="full", arima_kwargs=ARIMA_FAST)
        assert np.array_equal(o.series, exact_series(ads_wide_df, where, measure, DAYS)[:22])

    def test_pim_cubes(self, fp, ads_wide_df):
        got, want = fp.build_pim(), PIM(ads_wide_df, list(ADS_MEASURES), days=DAYS)
        for m in ADS_MEASURES:
            assert np.array_equal(got.totals[m], want.totals[m])
            for d in ADS_DIMS:
                assert np.array_equal(got.marginals[m][d], want.marginals[m][d])

    @pytest.mark.parametrize("weights", ["click", list(ADS_MEASURES)], ids=["optimal", "arithmetic"])
    def test_delta(self, fp, ads_wide_df, weights):
        w = optimal_weight(weights) if isinstance(weights, str) else arithmetic_weight(weights)
        assert delta_for_rate(fp.scan, w, 0.05) == delta_for_rate(ads_wide_df, w, 0.05)

    def test_full_source_scan_has_no_ingest_lineage(self, ads_df, monkeypatch):
        """``ads_df`` is cached, but its plan still holds the ingest's Arrow
        batches in a ``ParallelCollectionRDD`` that every task would ship;
        the frame the full source scans holds none."""
        scanned = []

        def exact(df, *args):
            scanned.append(df)
            return exact_series(df, *args)

        monkeypatch.setattr(estimators, "exact_series", exact)
        assert b"ParallelCollectionRDD" in ads_df.rdd.toDebugString()
        _with_flashp(ads_df, lambda fp: fp.run(
            "FORECAST SUM(click) FROM ads USING (0, 21)", source="full", arima_kwargs=ARIMA_FAST))
        assert len(scanned) == 1
        assert b"ParallelCollectionRDD" not in scanned[0].rdd.toDebugString()

    def test_close_releases_the_copy(self, ads_df):
        """``close()`` frees the copy's blocks, which ``DataFrame.unpersist``
        leaves held."""
        sc = ads_df.sparkSession.sparkContext

        def stored() -> set[int]:
            return {info.id() for info in sc._jsc.sc().getRDDStorageInfo()}

        fp = FlashP(ads_df, days=DAYS)
        copy = fp.scan._jdf.queryExecution().logical().rdd().id()
        fp.scan.unpersist(blocking=True)
        assert copy in stored()
        fp.close()
        assert copy not in stored()
