"""End-to-end tests for the FlashP pipeline (sample → estimate → fit →
forecast), matching the two online phases of Section 2.2."""
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.estimators import exact_series
from repro.core.pipeline import FlashP
from repro.forecast.arima import auto_arima
from repro.forecast.metrics import relative_forecast_error
from repro.synth_data import ADS_DIMS, ADS_MEASURES, random_constraint
from tests.conftest import DAYS

TRAIN_END = DAYS - 8  # train on days 0..21, evaluate forecasts on 22..28
ARIMA_FAST = {"max_p": 1, "max_q": 1, "max_d": 1}


@pytest.fixture(scope="module")
def flashp(ads_df):
    with closing(FlashP(ads_df, days=DAYS)) as fp:
        fp.add_gsw_sample("opt_imp", rate=0.1, weights="impression", seed=1)
        fp.add_gsw_sample("agsw", rate=0.1, weights=list(ADS_MEASURES), seed=1)
        fp.add_gsw_sample("ggsw", rate=0.1, weights="geometric:" + ",".join(ADS_MEASURES), seed=1)
        fp.add_uniform_sample("unif", rate=0.1, seed=1)
        fp.add_priority_sample("prio_imp", rate=0.1, measure="impression", seed=1)
        fp.build_pim()
        yield fp


TASK = (
    f"FORECAST SUM(impression) FROM ads WHERE gender = 1 "
    f"USING (0, {TRAIN_END}) OPTION (MODEL='arima', FORE_PERIOD=7)"
)


class TestSources:
    def test_full_source_matches_exact_series(self, flashp, ads_df):
        o = flashp.run(TASK, source="full", arima_kwargs=ARIMA_FAST)
        truth = exact_series(ads_df, "gender IN (1)", "impression", DAYS)
        assert np.array_equal(o.series, truth[: TRAIN_END + 1])

    @pytest.mark.parametrize("src", ["opt_imp", "agsw", "ggsw", "unif", "prio_imp"])
    def test_sampled_sources_track_truth(self, flashp, ads_df, src):
        o = flashp.run(TASK, source=src, arima_kwargs=ARIMA_FAST)
        truth = exact_series(ads_df, "gender IN (1)", "impression", DAYS)[: TRAIN_END + 1]
        rel = np.mean(np.abs(o.series - truth) / truth)
        assert rel < 0.5
        assert np.corrcoef(o.series, truth)[0, 1] > 0.3

    def test_pim_source_runs(self, flashp):
        o = flashp.run(TASK, source="pim", arima_kwargs=ARIMA_FAST)
        assert len(o.series) == TRAIN_END + 1

    def test_unknown_source_raises(self, flashp):
        with pytest.raises(KeyError):
            flashp.run(TASK, source="nope", arima_kwargs=ARIMA_FAST)

    def test_pim_requires_build(self, ads_df):
        with closing(FlashP(ads_df, days=DAYS)) as fp, pytest.raises(RuntimeError):
            fp.run(TASK, source="pim")


class TestOutcome:
    def test_shapes(self, flashp):
        o = flashp.run(TASK, source="full", arima_kwargs=ARIMA_FAST)
        assert len(o.series) == TRAIN_END + 1
        assert o.point.shape == o.lower.shape == o.upper.shape == (7,)
        assert np.all(o.lower <= o.point) and np.all(o.point <= o.upper)
        assert o.zero_days == 0  # a broad constraint matches rows every day

    def test_timings_recorded(self, flashp):
        o = flashp.run(TASK, source="opt_imp", arima_kwargs=ARIMA_FAST)
        for key in ("aggregate_s", "fit_s", "forecast_s", "total_s"):
            assert o.timings[key] >= 0.0
        assert o.timings["total_s"] == pytest.approx(
            o.timings["aggregate_s"] + o.timings["fit_s"] + o.timings["forecast_s"],
            rel=0.01,
        )

    def test_model_order_set_for_arima(self, flashp):
        o = flashp.run(TASK, source="full", arima_kwargs=ARIMA_FAST)
        assert o.model_order is not None and len(o.model_order) == 3

    def test_forecast_quality_on_full_data(self, flashp, ads_df):
        o = flashp.run(TASK, source="full")
        truth = exact_series(ads_df, "gender IN (1)", "impression", DAYS)
        future = truth[TRAIN_END + 1 : TRAIN_END + 8]
        # Tiny scale: 23 training days cannot resolve the 30-day cycle and
        # the 1.5k-rows/day aggregate is compositionally noisy — just bound
        # the error loosely here; forecast quality is asserted at benchmark
        # scale (150 training days) in benchmarks/.
        assert relative_forecast_error(o.point, future) < 0.6

    def test_lstm_model_path(self, flashp, ads_df):
        o = flashp.run(TASK.replace("'arima'", "'lstm'"), source="full", lstm_epochs=150)
        truth = exact_series(ads_df, "gender IN (1)", "impression", DAYS)
        future = truth[TRAIN_END + 1 : TRAIN_END + 8]
        assert o.model_order is None
        assert relative_forecast_error(o.point, future) < 0.6

    def test_task_object_accepted(self, flashp):
        from repro.core.task import parse_task

        o = flashp.run(parse_task(TASK), source="full", arima_kwargs=ARIMA_FAST)
        assert len(o.point) == 7

    def test_using_window_respected(self, flashp):
        task = (
            f"FORECAST SUM(click) FROM ads WHERE device = 0 USING (5, {TRAIN_END})"
        )
        o = flashp.run(task, source="full", arima_kwargs=ARIMA_FAST)
        assert len(o.series) == TRAIN_END - 5 + 1

    def test_window_past_last_day_rejected(self, flashp):
        task = f"FORECAST SUM(click) FROM ads USING (0, {DAYS})"
        with pytest.raises(ValueError, match=f"days={DAYS}"):
            flashp.run(task, source="full", arima_kwargs=ARIMA_FAST)


class TestZeroDays:
    """Days served as exactly 0 are counted, on the full table and on a sample."""

    N_DAYS = 12
    NO_ROWS = {2, 5, 6}   # no row matches gender = 1
    ZERO_SUM = {8}        # rows match gender = 1, but their clicks are 0

    @pytest.fixture(scope="class")
    def sparse_fp(self, spark):
        rows = [
            {**dict.fromkeys(ADS_DIMS, 0), **dict.fromkeys(ADS_MEASURES, 10 + t), "t": t, "gender": g}
            for t in range(self.N_DAYS)
            for g in (0, 1)
            if not (g == 1 and t in self.NO_ROWS)
        ]
        for r in rows:
            if r["gender"] == 1 and r["t"] in self.ZERO_SUM:
                r["click"] = 0
        with closing(FlashP(spark.createDataFrame(pd.DataFrame(rows)), days=self.N_DAYS)) as fp:
            fp.add_uniform_sample("every_row", rate=1.0)
            yield fp

    @pytest.mark.parametrize("source", ["full", "every_row"])
    @pytest.mark.parametrize("t_start", [0, 3])
    def test_counts_zero_days_in_window(self, sparse_fp, source, t_start):
        task = f"FORECAST SUM(click) FROM ads WHERE gender = 1 USING ({t_start}, {self.N_DAYS - 1})"
        o = sparse_fp.run(task, source=source, arima_kwargs=ARIMA_FAST)
        zero = sorted(t for t in self.NO_ROWS | self.ZERO_SUM if t >= t_start)
        assert o.zero_days == len(zero)
        assert (np.flatnonzero(o.series == 0) + t_start).tolist() == zero


class TestSampleManagement:
    def test_sample_sizes_near_rate(self, flashp, ads_df):
        n = ads_df.count()
        for name in ("opt_imp", "agsw", "unif"):
            frac = flashp.sample(name).count() / n
            assert 0.05 <= frac <= 0.15

    def test_priority_sample_fixed_size(self, flashp, ads_df):
        n_day = ads_df.count() / DAYS
        got = flashp.sample("prio_imp").count()
        assert got == DAYS * round(0.1 * n_day)

    def test_table_counted_once_for_priority_samples(self, spark, ads_df):
        """|T| is counted on the first priority sample, not on every one."""
        sc, jobs = spark.sparkContext, []
        with closing(FlashP(ads_df, days=DAYS)) as fp:
            for group in ("test-priority-first", "test-priority-second"):
                sc.setLocalProperty("spark.jobGroup.id", group)
                try:
                    fp.add_priority_sample(group, rate=0.05, measure="click", seed=2)
                finally:
                    sc.setLocalProperty("spark.jobGroup.id", None)
                jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
        assert jobs[1] < jobs[0]

    @pytest.mark.parametrize("add", [
        lambda fp, name: fp.add_gsw_sample(name, rate=0.1, weights="click"),
        lambda fp, name: fp.add_uniform_sample(name, rate=0.1),
        lambda fp, name: fp.add_priority_sample(name, rate=0.1, measure="click"),
    ], ids=["gsw", "uniform", "priority"])
    @pytest.mark.parametrize("name", ["full", "pim"])
    def test_reserved_names_rejected(self, flashp, add, name):
        """``run`` matches ``source`` against these names first, so a sample
        stored under one could never be served."""
        with pytest.raises(ValueError, match="reserved"):
            add(flashp, name)

    def test_sample_has_calibrated_columns(self, flashp):
        from repro.sampling.base import est_col

        s = flashp.sample("agsw")
        for m in ADS_MEASURES:
            assert est_col(m) in s.columns


class TestNullMeasure:
    """30% of ``click`` is null: every sampler reads it as 0, so no stored
    estimate is NaN and the served series is DuckDB's SUM over the stored
    sample (Spark's SUM skips a null; a per-day bincount would not)."""

    SOURCES = ["opt", "arith", "geo", "unif", "prio"]

    @pytest.fixture(scope="class")
    def null_fp(self, ads_df):
        df = ads_df.withColumn("click", F.when(F.rand(5) >= 0.3, F.col("click"))).cache()
        assert 0.2 < df.where("click IS NULL").count() / df.count() < 0.4
        with closing(FlashP(df, days=DAYS)) as fp:
            fp.add_gsw_sample("opt", rate=0.1, weights="click", seed=1)
            fp.add_gsw_sample("arith", rate=0.1, weights=list(ADS_MEASURES), seed=1)
            fp.add_gsw_sample("geo", rate=0.1, weights="geometric:" + ",".join(ADS_MEASURES), seed=1)
            fp.add_uniform_sample("unif", rate=0.1, seed=1)
            fp.add_priority_sample("prio", rate=0.1, measure="click", seed=1)
            yield fp
        df.unpersist()

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("where", [None, "gender IN (1) AND device IN (0, 1)"])
    def test_served_series_matches_duckdb(self, null_fp, source, where):
        stored = null_fp.sample(source).toPandas()
        assert stored["click_est"].notna().all()
        w = f"WHERE {where} " if where else ""
        o = null_fp.run(f"FORECAST SUM(click) FROM ads {w}USING (0, {TRAIN_END})",
                        source=source, arima_kwargs=ARIMA_FAST)
        rows = duckdb.sql(f"SELECT t, SUM(click_est) FROM stored {w}GROUP BY t").fetchall()
        want = np.zeros(DAYS)
        for t, v in rows:
            want[int(t)] = v
        assert not np.isnan(o.series).any()
        np.testing.assert_allclose(o.series, want[: TRAIN_END + 1], rtol=1e-9, atol=0)


class TestFittingWorkers:
    """``FlashP`` fits a task's ARIMA candidates on its own worker processes:
    the fits are those of a serial ``auto_arima``, a dead worker fails the
    next task, and ``close()`` leaves no worker behind."""

    BENCH_GRID = {"max_p": 2, "max_q": 2, "max_d": 1}

    @pytest.mark.parametrize("source", ["full", "agsw", "ggsw", "unif"])
    @pytest.mark.parametrize("i", range(3))
    def test_outcome_equals_serial_fit(self, flashp, source, i):
        measure = ADS_MEASURES[i % len(ADS_MEASURES)]
        where, _ = random_constraint(0.2, seed=100 + i)
        task = f"FORECAST SUM({measure}) FROM ads WHERE {where} USING (0, {TRAIN_END})"
        o = flashp.run(task, source=source, arima_kwargs=self.BENCH_GRID)
        ref = auto_arima(o.series, **self.BENCH_GRID)
        assert o.model_order == ref.order
        for got, want in zip((o.point, o.lower, o.upper), ref.forecast(7)):
            assert np.array_equal(got, want)

    def test_dead_worker_fails_the_next_task(self, ads_df):
        with closing(FlashP(ads_df, days=DAYS)) as fp, ThreadPoolExecutor(1) as caller:
            os.kill(fp._pool.submit(os.getpid).result(timeout=60), signal.SIGKILL)
            task = caller.submit(fp.run, TASK, source="full", arima_kwargs=ARIMA_FAST)
            with pytest.raises(BrokenProcessPool):
                task.result(timeout=60)

    def test_close_stops_every_worker(self, ads_df, spark):
        before = set(multiprocessing.active_children())
        # ``fp`` stays referenced: a collected pool would stop its workers too.
        with closing(FlashP(ads_df, days=DAYS)) as fp:
            workers = set(multiprocessing.active_children()) - before
        assert len(workers) == spark.sparkContext.defaultParallelism
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive()

    def test_script_without_main_guard_fails_fast(self, tmp_path):
        """Each spawned worker re-runs an unguarded script, builds a FlashP,
        and dies when it tries to start workers of its own; ``__init__``
        sees the broken pool at once and names the guard."""
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from pyspark.sql import SparkSession\n"
            "from repro.core.pipeline import FlashP\n"
            "spark = SparkSession.builder.getOrCreate()\n"
            "FlashP(spark.range(8).selectExpr('id AS t'), days=1)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYSPARK_SUBMIT_ARGS": (
            "--master local[1] --driver-memory 512m --conf spark.driver.host=127.0.0.1 "
            "--conf spark.ui.enabled=false pyspark-shell")}
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=110)
        assert time.monotonic() - t0 < 60
        assert done.returncode != 0
        assert 'if __name__ == "__main__":' in done.stderr

    def test_workers_do_not_import_pyspark(self, flashp):
        assert not flashp._pool.submit(eval, "'pyspark' in __import__('sys').modules").result()
