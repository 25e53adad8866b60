"""Every Spark pass over the table runs one map task per core
(``sampling.base.per_core``), and the coalesce that does it leaves every
sample's draw unchanged."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.pim import PIM
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

SCANS = {
    "exact_series": lambda df: exact_series(df, "gender IN (1)", "click", DAYS),
    "delta_for_rate": lambda df: delta_for_rate(df, optimal_weight("impression"), 0.1),
    "pim": lambda df: PIM(df, list(ADS_MEASURES), days=DAYS),
    "add_uniform_sample": lambda df: FlashP(df, days=DAYS).add_uniform_sample("u", rate=0.1),
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
    stages = [s for j in tracker.getJobIdsForGroup(group) for s in tracker.getJobInfo(j).stageIds]
    # A job's parent stages get lower ids than the stages that read them,
    # so the group's first stage is the one that scans the table.
    assert tracker.getStageInfo(min(stages)).numTasks <= sc.defaultParallelism


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
        stored = FlashP(ads_wide_df, days=DAYS).add_gsw_sample(
            "g", rate=self.RATE, weights=weights, seed=self.SEED)
        if isinstance(weights, str):
            w, measures = optimal_weight(weights), [weights]
        else:
            w, measures = arithmetic_weight(weights), weights
        delta = delta_for_rate(ads_wide_df, w, self.RATE)
        self._check(stored, gsw_sample(ads_wide_df, w, delta, measures=measures, seed=self.SEED))

    def test_uniform(self, ads_wide_df):
        stored = FlashP(ads_wide_df, days=DAYS).add_uniform_sample(
            "u", rate=self.RATE, seed=self.SEED)
        self._check(stored, uniform_sample(
            ads_wide_df, self.RATE, measures=list(ADS_MEASURES), seed=self.SEED))

    @pytest.mark.parametrize("measure", ["impression", "click"])
    def test_priority(self, ads_wide_df, measure):
        stored = FlashP(ads_wide_df, days=DAYS).add_priority_sample(
            "p", rate=self.RATE, measure=measure, seed=self.SEED)
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
