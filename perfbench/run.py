"""FlashP task benchmark: one closed-loop client sending FORECAST tasks.

    python3 perfbench/run.py --workload sampled-arima --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. One run generates the ads relation, starts a
local SparkSession, ingests the relation and builds the workload's sample
catalog (timed as ``setup_s``), warms up, then sends tasks one after
another for ``--seconds`` seconds. Every task's output is then checked
against DuckDB (see ``gate.py``). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. ``--workload all`` runs every workload in its own process
and prints a table instead. See README.md for what each number means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SF = 0.1                     # 15k rows/day x 165 days = 2.475M rows
DATA_SEED = 7                # the experiment harnesses' default relation
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
WARMUP_TASKS = 2
# The full-table aggregation runs about twice as fast after its first ~8
# runs in a JVM as on its first; warm it up with that many before timing.
FULL_WARMUP_SCANS = 8

END_TO_END = {
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "task_ok_frac": "fraction",
    "sample_rows_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spark.ingest_s": "s",
    "gsw.delta_solve_s": "s",
    "gsw.delta_solve_jobs": "count",
    "gsw.draw_s": "s",
    "gsw.size_ratio": "ratio",
    "uniform.build_s": "s",
    "estimators.sampled_ms": "ms",
    "estimators.sampled_jobs": "count",
    "estimators.rows_scanned": "count",
    "estimators.full_ms": "ms",
    "estimators.full_jobs": "count",
    "arima.auto_ms": "ms",
    "arima.select_d_ms": "ms",
    "arima.candidates": "count",
    "arima.failed_fits": "count",
    "arima.fit_ms": "ms",
    "arima.forecast_ms": "ms",
    "optim.nm_iters": "count",
    "optim.nm_converged_frac": "fraction",
    "arma.css_calls": "count",
    "lstm.fit_ms": "ms",
    "lstm.forecast_ms": "ms",
    "task.parse_ms": "ms",
    "pipeline.self_ms": "ms",
    "agg_rel_err": "ratio",
    "fc_rel_err": "ratio",
    "task_fail_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def _check_checkout() -> None:
    """Refuse to run without the program's sources beside the benchmark."""
    if not (SRC / "repro" / "core" / "pipeline.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}; run from a full checkout")
    for p in (str(SRC), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)


def _git_commit() -> str:
    """HEAD's commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            # Look for a repository at the checkout's root only, not above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _vm_hwm_mb(pid: int | str) -> float:
    """Peak resident set of one process, from /proc/<pid>/status."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Session:
    """A local SparkSession whose scratch files stay inside the checkout."""

    def __init__(self, cores: int):
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        # Read at JVM launch: keep Spark's and Python's scratch files here,
        # and let no inherited submit arguments change the master. The heap
        # is resident at its maximum from the start, so the JVM's resident
        # set does not depend on when the collector chose to grow it.
        os.environ["TMPDIR"] = str(self.tmp)
        os.environ["SPARK_LOCAL_DIRS"] = str(self.tmp)
        os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
        from pyspark.sql import SparkSession

        self.master = f"local[{cores}]"
        self.spark = (
            SparkSession.builder.master(self.master)
            .appName("perfbench")
            .config("spark.driver.memory", DRIVER_MEMORY)
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.extraJavaOptions",
                    f"-Djava.io.tmpdir={self.tmp} "
                    f"-XX:-UsePerfData -Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch")
            .config("spark.local.dir", str(self.tmp))
            .config("spark.sql.warehouse.dir", str(self.tmp / "warehouse"))
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            # The same session settings as the test suite's fixture.
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", "-1")
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self.jvm = self.spark.sparkContext._gateway.proc

    def reset_peak_rss(self) -> None:
        """Restart VmHWM at the current resident set of both processes."""
        for pid in ("self", self.jvm.pid):
            Path(f"/proc/{pid}/clear_refs").write_text("5")

    def peak_rss_mb(self) -> dict[str, float]:
        return {"python": _vm_hwm_mb("self"), "jvm": _vm_hwm_mb(self.jvm.pid)}

    def close(self) -> None:
        gateway = self.spark.sparkContext._gateway
        self.spark.stop()
        gateway.shutdown()
        # The JVM exits when its stdin closes; wait for it, kill it if not.
        self.jvm.stdin.close()
        try:
            self.jvm.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.jvm.kill()
            self.jvm.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)


@dataclass
class Served:
    task: object
    seconds: float
    out: object = None      # the program's ForecastOutcome
    error: str | None = None
    check: object = None    # the gate's verdict


def serve(fp, task, index: int) -> Served:
    from perfbench.workloads import ARIMA_GRID, LSTM_EPOCHS

    t0 = time.perf_counter()
    try:
        out = fp.run(task.text, source=task.source, arima_kwargs=ARIMA_GRID,
                     lstm_epochs=LSTM_EPOCHS, seed=index)
    except Exception as e:  # a failed task is counted, not fatal
        return Served(task, time.perf_counter() - t0, error=f"{type(e).__name__}: {e}")
    return Served(task, time.perf_counter() - t0, out)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    tasks beyond it, but never below the median: with 20 tasks or fewer
    that percentile would be at or under p50, so p50 is reported."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 20:
        return median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def generate(sf: float, data_seed: int):
    """The ads relation the program is given, as a pandas frame."""
    from repro.synth_data import ads_pandas

    from perfbench.workloads import DAYS

    return ads_pandas(sf=sf, days=DAYS, seed=data_seed)


def run_workload(session: Session, name: str, table, *, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run of workload ``name`` on the generated ``table``."""
    from repro.core import estimators
    from repro.core.pipeline import FlashP
    from repro.synth_data import ADS_DIMS

    from perfbench.gate import Oracle
    from perfbench.tracing import Tracer
    from perfbench.workloads import DAYS, WORKLOADS, task_stream

    wl = WORKLOADS[name]
    spark = session.spark
    tracer = Tracer(spark.sparkContext) if trace else None

    def span(label, jobs=False):
        return tracer.span(label, jobs=jobs) if tracer else nullcontext()

    # ---- set-up: ingest + catalog build, up to ready-to-serve. The peak
    # resident set counts from here, so data generation is left out of it.
    session.reset_peak_rss()
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    with span("spark.ingest", jobs=True):
        df = spark.createDataFrame(table).cache()
        n_rows = df.count()
    fp = FlashP(df, days=DAYS)
    for i, spec in enumerate(wl.catalog):
        sample_seed = seed * 16 + i
        if spec.weights is None:
            with span("catalog.uniform", jobs=True):
                fp.add_uniform_sample(spec.name, rate=spec.rate, seed=sample_seed)
        else:
            weights = spec.weights if isinstance(spec.weights, str) else list(spec.weights)
            with span("catalog.gsw", jobs=True):
                fp.add_gsw_sample(spec.name, rate=spec.rate, weights=weights, seed=sample_seed)
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.remove()

    # ---- untimed: warm up
    t_prep = time.perf_counter()
    warm = task_stream(wl, seed, stream=1)
    for spec in wl.catalog:
        t = next(warm)
        estimators.estimated_series(fp.sample(spec.name), t.where, spec.measures[0], DAYS)
    for _ in range(0 if wl.catalog else FULL_WARMUP_SCANS):
        t = next(warm)
        estimators.exact_series(df, t.where, t.measure, DAYS)
    for i in range(WARMUP_TASKS):
        serve(fp, next(warm), -1 - i)

    # ---- timed: one closed-loop client
    stream = task_stream(wl, seed)
    served: list[Served] = []
    pairs: list[tuple[Served, Served]] = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        task = next(stream)
        i = len(served) if not trace else len(pairs)
        if not trace:
            served.append(serve(fp, task, i))
            continue
        # Traced run: serve each task untraced and traced, alternating
        # which goes first, so trace.overhead_frac compares equal work.
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.task = i
                with tracer.span("task"):
                    runs[True] = serve(fp, task, i)
                tracer.task = None
                tracer.remove()
            else:
                runs[False] = serve(fp, task, i)
        pairs.append((runs[False], runs[True]))
    elapsed = time.perf_counter() - start
    peak_rss = session.peak_rss_mb()

    # ---- correctness gate and accuracy, outside the timed section. The
    # samples are cached and unchanged since set-up; collect them once.
    t_gate = time.perf_counter()
    samples = {
        spec.name: fp.sample(spec.name)
        .select("t", *ADS_DIMS, *[f"{m}_est" for m in spec.measures])
        .toPandas()
        for spec in wl.catalog
    }
    oracle = Oracle(table, samples)
    catalog_rows = {k: len(v) for k, v in samples.items()}
    checked = [s for pair in pairs for s in pair] if trace else served
    failures, agg_err, fc_err = [], [], []
    for s in checked:
        if s.error is None:
            s.check = oracle.check(s.task, s.out.series, s.out.point, s.out.lower, s.out.upper)
            if s.check.ok:
                agg_err.append(s.check.agg_rel_err)
                fc_err.append(s.check.fc_rel_err)
                continue
            s.error = s.check.reason
        failures.append(f"{s.task.text} [source={s.task.source}]: {s.error}")
    oracle.close()
    attempted = len(checked)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rows": n_rows,
        "phase_s": {"setup": setup_s, "prepare": start - t_prep,
                    "timed": elapsed, "gate": time.perf_counter() - t_gate},
        "catalog_rows": catalog_rows, "peak_rss_mb": peak_rss, "failures": failures,
        "per_task": [
            {"source": s.task.source, "measure": s.task.measure, "ms": 1e3 * s.seconds,
             "agg_rel_err": s.check.agg_rel_err if s.check else None,
             "fc_rel_err": s.check.fc_rel_err if s.check else None,
             **({k: 1e3 * v for k, v in s.out.timings.items()} if s.out else {})}
            for s in checked
        ],
    }

    if not trace:
        lat = [1e3 * s.seconds for s in served]
        tail_ms, tail_pct = tail(lat)
        info.update(tasks=len(lat), tail_percentile=tail_pct, elapsed_s=elapsed)
        metrics = {
            "task_p50_ms": median(lat),
            "task_tail_ms": tail_ms,
            "tasks_per_s": len(lat) / elapsed,
            "setup_s": setup_s,
            "task_ok_frac": 1.0 - len(failures) / attempted,
            # Rows tasks are served from, over table rows: the whole table
            # when there is no catalog.
            "sample_rows_frac": sum(catalog_rows.values()) / n_rows if wl.catalog else 1.0,
            "peak_rss_mb": sum(peak_rss.values()),
        }
    else:
        ids = list(range(len(pairs)))
        sampled_rows = [catalog_rows[u.task.source] for u, _ in pairs if u.task.source != "full"]
        metrics = tracer.layer_metrics(ids)
        gsw_ratios = [catalog_rows[s.name] / (s.rate * n_rows)
                      for s in wl.catalog if s.weights is not None]
        metrics.update({
            "gsw.size_ratio": mean(gsw_ratios) if gsw_ratios else 0.0,
            "estimators.rows_scanned": mean(sampled_rows) if sampled_rows else 0.0,
            "agg_rel_err": mean(agg_err) if agg_err else float("nan"),
            "fc_rel_err": mean(fc_err) if fc_err else float("nan"),
            "task_fail_frac": len(failures) / attempted,
            "trace.overhead_frac": sum(t.seconds for _, t in pairs)
            / sum(u.seconds for u, _ in pairs) - 1.0,
        })
        metrics = {k: metrics[k] for k in PER_LAYER}
        info["tasks"] = len(pairs)
        info["spans"] = tracer.spans
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "info": info,
    }


def environment(session: Session) -> dict:
    import numpy
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "master": session.master,
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def run_one(args) -> int:
    # Generate the relation while the JVM starts; neither is measured.
    with ThreadPoolExecutor(1) as pool:
        table = pool.submit(generate, SF, args.data_seed)
        session = Session(CORES)
        try:
            table = table.result()
        except BaseException:
            session.close()
            raise
    try:
        env = environment(session)
        res = run_workload(session, args.workload, table, seed=args.seed,
                           seconds=args.seconds, trace=bool(args.trace))
    finally:
        session.close()
    info = res.pop("info")
    info.update(sf=SF, data_seed=args.data_seed)
    spans = info.pop("spans", None)
    units = PER_LAYER if args.trace else END_TO_END
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"env": env, **info, **res}, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    print("env " + json.dumps(env))
    print("run " + json.dumps({k: v for k, v in info.items() if k != "per_task"}))
    for k, v in res["metrics"].items():
        extra = ""
        if k == "task_tail_ms":
            extra = f"  (p{info['tail_percentile']:.0f} of {info['tasks']} tasks)"
        print(f"{args.workload:14s} {k:26s} {v:14.6g} {units[k]}{extra}")
    res["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
    print(json.dumps(res))
    return 0


def run_all(args) -> int:
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-seed", str(args.data_seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        for k, m in res["metrics"].items():
            print(f"{name:14s} {k:26s} {m['value']:14.6g} {m['unit']}")
        if not args.trace:
            print(f"{name:14s} {'task_fail_frac':26s} {res['failed'] / res['attempted']:14.6g} "
                  f"fraction  ({res['failed']} of {res['attempted']} tasks failed the gate)")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--data-seed", type=int, default=DATA_SEED,
                   help="seed of the ads relation; vary it to check a claim on new data")
    args = p.parse_args(argv)
    _check_checkout()
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
