"""FlashP end-to-end pipeline — Section 2.2 / Figure 7.

The offline phase draws multi-layer samples (different Δ's / rates) on
Spark and keeps each in driver memory as a columnar frame (Fig. 2); the
online phase processes a forecasting task in two steps:

1. *Aggregation*: the Query Rewriter turns the task into per-day SUM
   queries (eq. 4), answered either on the full relation (one Catalyst
   Filter→Aggregate on Spark, one map task per core) or from one of the
   stored samples' calibrated columns (one ``np.bincount`` per task, no
   Spark job).
2. *Forecasting*: the estimated series M̂_{ts..te} trains the requested
   model (auto-ARIMA or LSTM), which predicts FORE_PERIOD future days
   with confidence intervals.

Every Spark pass (the exact series, the Δ histogram, the draws, the PIM
cubes, the row count) reads ``FlashP.scan``, the lineage-free per-core
copy ``per_core(with_row_id(df)).localCheckpoint()``, so no task ships
the ingest's Arrow batches. A draw hashes the row ids, which come from
the caller's partitions, with its seed: no sample depends on the cores.

The ARIMA candidates of a task are fitted concurrently, on a pool of
worker processes that each ``FlashP`` starts in ``__init__`` and stops in
``close()``: one worker per core (``defaultParallelism``, the core count
of every ``per_core`` pass). The workers are spawned, not forked: each is
a fresh interpreter that imports the caller's main module (so a script
builds its ``FlashP`` under ``if __name__ == "__main__":``, or
``__init__`` fails at once, naming it) and the fitter, and shares neither
the driver's memory nor its JVM gateway. ``__init__`` returns once every
worker has imported the fitter, so the start-up is paid there; ``run``
hands the pool's ``map`` to ``auto_arima``, which submits the longest
fits first. Every fit is the one a serial ``auto_arima`` makes. A worker
that dies breaks the pool, and the next ARIMA task raises
``BrokenProcessPool``: nothing falls back to a serial fit.

Per-phase wall-clock timings are recorded — Exp-II's response-time
breakdown is read straight from ``ForecastOutcome.timings``.
"""
from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.pim import PIM
from repro.core import estimators
from repro.core.gsw import (
    arithmetic_weight,
    delta_for_rate,
    geometric_weight,
    gsw_sample,
    optimal_weight,
    uniform_sample,
)
from repro.core.task import ForecastTask, parse_task, rewrite_where
from repro.forecast.arima import auto_arima, worker_ready
from repro.forecast.lstm import LSTMForecaster
from repro.sampling.base import est_col, per_core, with_row_id
from repro.sampling.priority import priority_sample
from repro.synth_data import ADS_DIMS, ADS_MEASURES


@dataclass
class ForecastOutcome:
    """Everything a task run produces (plus timings for Exp-II)."""

    task: ForecastTask
    series: np.ndarray           # estimated training series M̂_{ts..te}
    point: np.ndarray            # forecasts for the next FORE_PERIOD days
    lower: np.ndarray
    upper: np.ndarray
    zero_days: int               # training days whose served value is exactly 0
    timings: dict[str, float] = field(default_factory=dict)
    model_order: tuple | None = None


class FlashP:
    """One FlashP instance over one time-series relation. It owns worker
    processes until ``close()``; use it as ``with closing(FlashP(...))``."""

    def __init__(self, df: DataFrame, *, days: int):
        self.days = days
        # The ARIMA fitters (see the module docstring). No worker idles before
        # all n reach the barrier, so the n submits spawn n workers, which
        # import the fitter while the JVM builds the copy; a dead one fails all.
        n = df.sparkSession.sparkContext.defaultParallelism
        ctx = multiprocessing.get_context("spawn")
        ready = ctx.Barrier(n)
        self._pool = ProcessPoolExecutor(
            n, mp_context=ctx, initializer=worker_ready, initargs=(ready,))
        try:
            started = [self._pool.submit(int) for _ in range(n)]
            self.scan = per_core(with_row_id(df)).localCheckpoint()
            for f in started:
                f.result(timeout=120)
        except BrokenExecutor as e:  # the pool has killed the other workers
            self._pool.shutdown()
            raise RuntimeError("a fitting worker died while starting; a script must build "
                               'its FlashP under if __name__ == "__main__":') from e
        except BaseException:
            ready.abort()  # let the workers out of the barrier, to exit
            self._pool.shutdown()
            raise
        self._samples: dict[str, pd.DataFrame] = {}
        self._pim: PIM | None = None

    # ------------------------------------------------- offline sampling
    def add_gsw_sample(
        self,
        name: str,
        *,
        rate: float,
        weights: str | list[str],
        seed: int = 0,
    ) -> pd.DataFrame:
        """Draw and store a GSW sample.

        ``weights``: a measure name → optimal GSW for that measure;
        a list of measures → arithmetic-mean compressed sample;
        the string ``"geometric:<m1>,<m2>,.."`` → geometric-mean sample.
        """
        if isinstance(weights, str) and weights.startswith("geometric:"):
            group = weights.split(":", 1)[1].split(",")
            w, measures = geometric_weight(group), group
        elif isinstance(weights, str):
            w, measures = optimal_weight(weights), [weights]
        else:
            w, measures = arithmetic_weight(list(weights)), list(weights)
        delta = delta_for_rate(self.scan, w, rate)
        return self._cache(name, gsw_sample(self.scan, w, delta, measures=measures, seed=seed))

    def add_uniform_sample(
        self, name: str, *, rate: float, seed: int = 0
    ) -> pd.DataFrame:
        return self._cache(name, uniform_sample(self.scan, rate, measures=ADS_MEASURES, seed=seed))

    def add_priority_sample(
        self, name: str, *, rate: float, measure: str, seed: int = 0
    ) -> pd.DataFrame:
        k = max(1, int(round(rate * self._rows_per_day)))
        return self._cache(name, priority_sample(self.scan, k, measure=measure, seed=seed))

    @cached_property
    def _rows_per_day(self) -> float:
        """|T| / days, counted once on first use (only priority samples need it)."""
        return self.scan.count() / self.days

    def _cache(self, name: str, sample: DataFrame) -> pd.DataFrame:
        """Collect a drawn sample into the store under ``name``, keeping only
        the served columns: ``t``, the dimension codes and each ``{m}_est``.
        The paper's sampling phase is offline and its samples are served
        from memory, so no task pays for the draw or for a Spark job."""
        if name in ("full", "pim"):
            raise ValueError(f"sample name {name!r} is reserved for source={name!r}")
        served = {"t", *ADS_DIMS, *map(est_col, ADS_MEASURES)}
        s = sample.select([c for c in sample.columns if c in served]).toPandas()
        self._samples[name] = s
        return s

    def build_pim(self) -> PIM:
        """Precompute the PIM baseline's per-day marginal cubes."""
        self._pim = PIM(self.scan, ADS_MEASURES, days=self.days)
        return self._pim

    def close(self) -> None:
        """Stop the fitting workers and wait for them to exit, then release
        ``scan``'s blocks; nothing may run afterwards. The blocks belong to
        the RDD under the copy's plan, which ``DataFrame.unpersist`` does
        not reach."""
        self._pool.shutdown()
        self.scan._jdf.queryExecution().logical().rdd().unpersist(True)

    def sample(self, name: str) -> DataFrame:
        """The stored sample ``name`` as a Spark DataFrame, built on demand."""
        return self.scan.sparkSession.createDataFrame(self._samples[name])

    # --------------------------------------------------- online serving
    def _aggregate(
        self, task: ForecastTask, source: str
    ) -> np.ndarray:
        where = rewrite_where(task)
        if source == "full":
            series = estimators.exact_series(self.scan, where, task.measure, self.days)
        elif source == "pim":
            if self._pim is None:
                raise RuntimeError("call build_pim() before using source='pim'")
            series = self._pim.estimate_series(where, task.measure)
        else:
            series = estimators.estimated_series(
                self._samples[source], where, task.measure, self.days
            )
        return series[task.t_start : task.t_end + 1]

    def run(
        self, task: ForecastTask | str, *, source: str = "full", conf: float = 0.9,
        lstm_epochs: int = 300, seed: int = 0, arima_kwargs: dict | None = None,
    ) -> ForecastOutcome:
        """Process one forecasting task end to end."""
        if isinstance(task, str):
            task = parse_task(task)
        if task.t_end >= self.days:
            raise ValueError(
                f"USING window ({task.t_start}, {task.t_end}) ends at or after days={self.days}"
            )
        t0 = time.perf_counter()
        series = self._aggregate(task, source)
        t1 = time.perf_counter()
        h = task.fore_period
        order = None
        if task.model == "arima":
            model = auto_arima(series, map=self._pool.map, **(arima_kwargs or {}))
            order = model.order
            t2 = time.perf_counter()
            point, lower, upper = model.forecast(h, conf=conf)
        else:
            model = LSTMForecaster(epochs=lstm_epochs, seed=seed).fit(series)
            t2 = time.perf_counter()
            point, lower, upper = model.forecast(h, conf=conf)
        t3 = time.perf_counter()
        return ForecastOutcome(
            task=task,
            series=series,
            point=point,
            lower=lower,
            upper=upper,
            zero_days=int(np.count_nonzero(series == 0)),
            model_order=order,
            timings={
                "aggregate_s": t1 - t0,
                "fit_s": t2 - t1,
                "forecast_s": t3 - t2,
                "total_s": t3 - t0,
            },
        )
