"""Every Spark pass FlashP runs reads its copy of the relation,
``FlashP.scan``, which has one partition per core, answers each pass bit
for bit as the caller's frame does and holds no lineage back to the
ingest. Every draw hashes each row's id with its seed, so no sample
depends on the partitioning."""
from contextlib import closing

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.pim import PIM
from repro.core import estimators, pipeline
from repro.core.estimators import exact_series
from repro.core.gsw import (
    arithmetic_weight,
    delta_for_rate,
    geometric_weight,
    gsw_sample,
    optimal_weight,
    uniform_sample,
)
from repro.core.pipeline import FlashP
from repro.sampling.base import est_col, uniform, with_row_id
from repro.sampling.priority import priority_sample
from repro.synth_data import ADS_DIMS, ADS_MEASURES
from tests.conftest import DAYS, WIDE_PARTITIONS

ARIMA_FAST = {"max_p": 1, "max_q": 1, "max_d": 1}


def _with_flashp(df, call):
    """``call(fp)`` on a new ``FlashP`` over ``df``, closed afterwards."""
    with closing(FlashP(df, days=DAYS)) as fp:
        return call(fp)


SCANS = {
    "add_gsw_sample": lambda fp: fp.add_gsw_sample("g", rate=0.1, weights="impression"),
    "add_priority_sample": lambda fp: fp.add_priority_sample("p", rate=0.1, measure="click"),
    "build_pim": lambda fp: fp.build_pim(),
    "add_uniform_sample": lambda fp: fp.add_uniform_sample("u", rate=0.1),
    "flashp_full": lambda fp: fp.run(
        "FORECAST SUM(click) FROM ads WHERE gender IN (1) USING (0, 21)",
        source="full", arima_kwargs=ARIMA_FAST),
}


@pytest.mark.parametrize("name", SCANS)
def test_scan_runs_one_task_per_core(spark, ads_wide_df, name):
    sc, group = spark.sparkContext, f"test-per-core-{name}"
    assert ads_wide_df.rdd.getNumPartitions() == WIDE_PARTITIONS > sc.defaultParallelism
    sc.setLocalProperty("spark.jobGroup.id", group)
    try:
        _with_flashp(ads_wide_df, SCANS[name])
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    assert jobs
    # A job's parent stages get lower ids than the stages that read them,
    # so each job's first stage is the one that scans its input: the
    # caller's frame, when FlashP builds its copy, or the copy.
    for j in jobs:
        first = min(tracker.getJobInfo(j).stageIds)
        assert tracker.getStageInfo(first).numTasks <= sc.defaultParallelism


def _sorted(pdf: pd.DataFrame) -> pd.DataFrame:
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


WEIGHTS = {
    "optimal": ("impression", lambda: optimal_weight("impression"), ["impression"]),
    "arithmetic": (list(ADS_MEASURES), lambda: arithmetic_weight(list(ADS_MEASURES)), list(ADS_MEASURES)),
    "geometric": ("geometric:" + ",".join(ADS_MEASURES),
                  lambda: geometric_weight(list(ADS_MEASURES)), list(ADS_MEASURES)),
}
RATE, SEED = 0.1, 11


def _k(df) -> int:
    """A priority sample's rows per day at ``RATE``, as ``FlashP`` counts them."""
    return max(1, round(RATE * df.count() / DAYS))


class TestSamplesUnchanged:
    """A draw gives the same rows, with bit-identical ``{m}_est``, on any
    partitioning of the same row ids: one partition, the ids' own, or 48
    after a shuffle. Each row's uniform is a hash of its id and the seed."""

    @pytest.fixture(scope="class")
    def frames(self, ads_df):
        base = with_row_id(ads_df).localCheckpoint()
        return [base, base.coalesce(1), base.repartition(WIDE_PARTITIONS)]

    @staticmethod
    def _check(frames, draw) -> None:
        first, *others = (_sorted(draw(df).toPandas()) for df in frames)
        assert len(first) > 0
        for other in others:
            assert first.equals(other)

    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_gsw(self, frames, weights):
        _, w, measures = WEIGHTS[weights]
        delta = delta_for_rate(frames[0], w(), RATE)
        self._check(frames, lambda df: gsw_sample(df, w(), delta, measures=measures, seed=SEED))

    def test_uniform(self, frames):
        self._check(frames, lambda df: uniform_sample(
            df, RATE, measures=list(ADS_MEASURES), seed=SEED))

    @pytest.mark.parametrize("measure", ["impression", "click"])
    def test_priority(self, frames, measure):
        k = _k(frames[0])
        self._check(frames, lambda df: priority_sample(df, k, measure=measure, seed=SEED))

    @pytest.mark.parametrize("measure", ["impression", "click"])
    def test_priority_matches_its_definition(self, ads_wide_df, measure):
        """``priority_sample`` against the priorities ``m / uniform(seed)``
        ranked in pandas: the ``k`` largest per day, with ``m̂ = max(m, τ)``
        for τ the (k+1)-th."""
        k = 40
        cols = ["t", *ADS_DIMS, est_col(measure)]
        m = F.col(measure).cast("double")
        df = with_row_id(ads_wide_df)
        q = df.select("t", *ADS_DIMS, m.alias("m"), (m / uniform(SEED)).alias("q"))
        want = []
        for _, day in q.toPandas().groupby("t"):
            top = day.sort_values("q", ascending=False, na_position="last")
            tau = top["q"].iloc[k]
            want.append(top.head(k).assign(**{est_col(measure): np.fmax(top["m"].head(k), tau)}))
        got = priority_sample(df, k, measure=measure, seed=SEED)
        got = got.select(*cols).toPandas()
        assert _sorted(got).equals(_sorted(pd.concat(want)[cols]))


class TestScanCopy:
    """FlashP's passes read ``FlashP.scan``, one partition per core where the
    caller's frame has many, and answer exactly as the same passes over the
    caller's frame: the sums add integer measures as doubles, which is exact
    in any order, the weight histogram is sorted before use, and the copy's
    row ids are those ``with_row_id`` gives the caller's frame."""

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

    @pytest.mark.parametrize("draw", [*WEIGHTS, "uniform", "priority"])
    def test_store_equals_direct_draw(self, fp, ads_wide_df, draw):
        df = with_row_id(ads_wide_df)
        if draw == "uniform":
            stored = fp.add_uniform_sample(draw, rate=RATE, seed=SEED)
            direct = uniform_sample(df, RATE, measures=list(ADS_MEASURES), seed=SEED)
        elif draw == "priority":
            stored = fp.add_priority_sample(draw, rate=RATE, measure="click", seed=SEED)
            direct = priority_sample(df, _k(df), measure="click", seed=SEED)
        else:
            spec, w, measures = WEIGHTS[draw]
            stored = fp.add_gsw_sample(draw, rate=RATE, weights=spec, seed=SEED)
            direct = gsw_sample(df, w(), delta_for_rate(df, w(), RATE), measures=measures, seed=SEED)
        assert len(stored) > 0
        assert _sorted(stored).equals(_sorted(direct.select(*stored.columns).toPandas()))

    def test_store_is_in_row_id_order(self, fp, ads_wide_df):
        """The store keeps a sample's rows in row-id order, so the order the
        estimated series sums them in does not depend on the copy's layout."""
        stored = fp.add_uniform_sample("ordered", rate=RATE, seed=SEED)
        direct = uniform_sample(with_row_id(ads_wide_df), RATE,
                                measures=list(ADS_MEASURES), seed=SEED)
        assert stored.equals(direct.orderBy("_rid").select(*stored.columns).toPandas())

    PASSES = {
        "full": (estimators, "exact_series", lambda fp: fp.run(
            "FORECAST SUM(click) FROM ads USING (0, 21)", source="full", arima_kwargs=ARIMA_FAST)),
        "gsw": (pipeline, "gsw_sample", lambda fp: fp.add_gsw_sample("g", rate=RATE, weights="click")),
        "uniform": (pipeline, "uniform_sample", lambda fp: fp.add_uniform_sample("u", rate=RATE)),
        "priority": (pipeline, "priority_sample",
                     lambda fp: fp.add_priority_sample("p", rate=RATE, measure="click")),
    }

    @pytest.mark.parametrize("name", PASSES)
    def test_spark_pass_has_no_ingest_lineage(self, ads_df, monkeypatch, name):
        """``ads_df`` is cached, but its plan still holds the ingest's Arrow
        batches in a ``ParallelCollectionRDD`` that every task would ship;
        no frame that FlashP's passes scan or collect holds one."""
        owner, attr, run = self.PASSES[name]
        orig, lineages = getattr(owner, attr), []

        def spy(df, *args, **kwargs):
            out = orig(df, *args, **kwargs)
            lineages.append((out if isinstance(out, DataFrame) else df).rdd.toDebugString())
            return out

        monkeypatch.setattr(owner, attr, spy)
        assert b"ParallelCollectionRDD" in ads_df.rdd.toDebugString()
        _with_flashp(ads_df, run)
        assert len(lineages) == 1
        assert b"ParallelCollectionRDD" not in lineages[0]

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
