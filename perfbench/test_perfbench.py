"""Fast checks of the benchmark itself, at a small scale factor.

    PYTHONPATH=src python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run as bench

bench._check_checkout()

from repro.core.pipeline import FlashP  # noqa: E402
from repro.synth_data import ads_pandas  # noqa: E402

from perfbench.gate import Oracle  # noqa: E402
from perfbench.workloads import DAYS, WORKLOADS, Workload, task_stream  # noqa: E402

SF = 0.005


@pytest.fixture(scope="module")
def session():
    s = bench.Session(cores=2)
    yield s
    s.close()


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.fixture(scope="module")
def table():
    return bench.generate(SF, 7)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(session, table, workload, trace):
    res = bench.run_workload(session, workload, table, seed=1, seconds=0.5, trace=trace)
    assert res["correct"], res["info"]["failures"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(res["metrics"]) == list(names)
    assert all(np.isfinite(v) for v in res["metrics"].values()), res["metrics"]
    m = res["metrics"]
    if trace and workload == "full-scan":
        assert m["estimators.full_jobs"] > 0 and m["estimators.full_ms"] > 0
        assert all(m[k] == 0 for k in m if k.startswith(("gsw.", "estimators.sampled_")))
        assert m["estimators.rows_scanned"] == 0 and m["uniform.build_s"] == 0
        assert m["arima.candidates"] == 0 and m["arima.auto_ms"] == 0
        assert m["lstm.fit_ms"] > 0
    if trace and workload == "sampled-arima":
        assert m["estimators.full_jobs"] == 0 and m["estimators.sampled_jobs"] > 0
        assert m["gsw.delta_solve_jobs"] > 0 and m["uniform.build_s"] > 0
        assert m["arima.candidates"] > 0 and m["lstm.fit_ms"] == 0


def test_gate_counts_a_corrupted_series_as_failed(session):
    table = ads_pandas(sf=SF, days=DAYS, seed=3)
    fp = FlashP(session.spark.createDataFrame(table).cache(), days=DAYS)
    spec = WORKLOADS["sampled-arima"].catalog[1]
    wl = Workload("one-sample", "lstm", (spec,))
    fp.add_gsw_sample(spec.name, rate=0.1, weights=list(spec.weights), seed=1)
    collected = fp.sample(spec.name).select("*").toPandas()
    oracle = Oracle(table, {spec.name: collected})
    try:
        task = next(task_stream(wl, seed=5))
        out = bench.serve(fp, task, 0).out
        assert oracle.check(task, out.series, out.point, out.lower, out.upper).ok

        series = out.series.copy()
        day = int(np.argmax(series))
        series[day] *= 1 + 1e-6
        bad = oracle.check(task, series, out.point, out.lower, out.upper)
        assert not bad.ok and f"day {day}" in bad.reason

        point = out.point.copy()
        point[0] = out.upper[0] + 1.0
        assert not oracle.check(task, out.series, point, out.lower, out.upper).ok
        assert not oracle.check(task, out.series, out.point[:-1], out.lower, out.upper).ok
        point[0] = np.nan
        assert not oracle.check(task, out.series, point, out.lower, out.upper).ok
    finally:
        oracle.close()


def test_tail_is_the_highest_percentile_with_ten_beyond_it_or_the_median():
    assert bench.tail(list(range(40))) == (29, 75.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_fails_without_the_program_sources():
    bare = bench.ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.ROOT / "perfbench", bare / "perfbench")
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "full-scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
