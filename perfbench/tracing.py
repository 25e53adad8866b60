"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` replaces the program's public functions at the module or
class attribute where their callers look them up, so no program file
changes; ``Tracer.remove`` puts the originals back. An untraced run never
installs the wrappers.

A span records its name, start, end, parent span and task. A span opened
with ``jobs=True`` runs under its own Spark job group, and the number of
jobs Spark ran for that group is read as soon as the span ends, because
the status store keeps only the most recent jobs. Spans stay in memory
until the run writes them out.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import mean, median

from repro.core import estimators, pipeline
from repro.forecast import arima, arma, lstm

_GROUP = "spark.jobGroup.id"


class Tracer:
    def __init__(self, sc):
        self.sc = sc
        self.spans: list[dict] = []
        self.task: int | None = None    # id of the task being served, if any
        self.css_calls: Counter = Counter()
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, *, jobs: bool = False):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent, "task": self.task}
        self.spans.append(rec)
        if jobs:
            rec["group"] = f"perfbench-span-{rec['id']}"
            self.sc.setLocalProperty(_GROUP, rec["group"])
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if jobs:
                rec["jobs"] = len(self.sc.statusTracker().getJobIdsForGroup(rec["group"]))
                outer = next((s["group"] for s in reversed(self._stack) if "group" in s), None)
                self.sc.setLocalProperty(_GROUP, outer)

    # ------------------------------------------------------------ wrappers
    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._saved.append((owner, attr, orig))

    def _spanned(self, name: str, *, jobs: bool = False, record=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                with self.span(name, jobs=jobs) as rec:
                    out = orig(*args, **kwargs)
                    if record is not None:
                        record(rec, out)
                    return out
            return wrapper
        return make

    def _counted(self, orig):
        def wrapper(*args, **kwargs):
            self.css_calls[self.task] += 1
            return orig(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        def nm_result(rec, res):
            rec["nit"], rec["converged"] = int(res.nit), bool(res.converged)

        targets = [
            (pipeline, "parse_task", "task.parse", False, None),
            (pipeline, "auto_arima", "arima.auto", False, None),
            (pipeline, "delta_for_rate", "gsw.delta_solve", True, None),
            (pipeline, "gsw_sample", "gsw.sample", True, None),
            (pipeline, "uniform_sample", "uniform.sample", True, None),
            (estimators, "estimated_series", "estimators.sampled", True, None),
            (estimators, "exact_series", "estimators.full", True, None),
            (arima, "select_d", "arima.select_d", False, None),
            (arima, "fit_arima", "arima.fit", False, None),
            (arima.ARIMAResult, "forecast", "arima.forecast", False, None),
            (arma, "nelder_mead", "optim.nelder_mead", False, nm_result),
            (lstm.LSTMForecaster, "fit", "lstm.fit", False, None),
            (lstm.LSTMForecaster, "forecast", "lstm.forecast", False, None),
        ]
        for owner, attr, name, jobs, record in targets:
            self._patch(owner, attr, self._spanned(name, jobs=jobs, record=record))
        self._patch(arma, "css_residuals", self._counted)

    def remove(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------- metrics
    def layer_metrics(self, tasks: list[int]) -> dict[str, float]:
        """Per-layer metrics from the set-up spans and the spans of ``tasks``.

        ``*_s`` are set-up totals. Over the tasks where a layer ran, ``*_ms``
        are medians of the per-task sum of its spans and counts are per-task
        means; both are 0 where the layer never ran.
        """
        def dur(s):
            return s["end"] - s["start"]

        setup = [s for s in self.spans if s["task"] is None]
        by_task = defaultdict(list)
        for s in self.spans:
            if s["task"] in tasks:
                by_task[s["task"]].append(s)

        def setup_total(name, key=dur):
            return float(sum(key(s) for s in setup if s["name"] == name))

        def sums(name, key):
            return [sum(key(s) for s in by_task[t] if s["name"] == name)
                    for t in tasks if any(s["name"] == name for s in by_task[t])]

        def task_ms(name):
            xs = sums(name, dur)
            return 1e3 * median(xs) if xs else 0.0

        def per_task(name, key=lambda s: 1):
            xs = sums(name, key)
            return mean(xs) if xs else 0.0

        nm = [s for t in tasks for s in by_task[t] if "nit" in s]
        css = [self.css_calls[t] for t in tasks if self.css_calls[t]]
        children = defaultdict(float)
        for t in tasks:
            for s in by_task[t]:
                children[s["parent"]] += dur(s)
        self_ms = [1e3 * (dur(s) - children[s["id"]]) for t in tasks for s in by_task[t]
                   if s["name"] == "task"]
        return {
            "spark.ingest_s": setup_total("spark.ingest"),
            "gsw.delta_solve_s": setup_total("gsw.delta_solve"),
            "gsw.delta_solve_jobs": setup_total("gsw.delta_solve", key=lambda s: s["jobs"]),
            "gsw.draw_s": setup_total("catalog.gsw") - setup_total("gsw.delta_solve"),
            "uniform.build_s": setup_total("catalog.uniform"),
            "estimators.sampled_ms": task_ms("estimators.sampled"),
            "estimators.sampled_jobs": per_task("estimators.sampled", key=lambda s: s["jobs"]),
            "estimators.full_ms": task_ms("estimators.full"),
            "estimators.full_jobs": per_task("estimators.full", key=lambda s: s["jobs"]),
            "arima.auto_ms": task_ms("arima.auto"),
            "arima.select_d_ms": task_ms("arima.select_d"),
            "arima.candidates": per_task("arima.fit"),
            "arima.failed_fits": per_task("arima.fit", key=lambda s: int(s.get("failed", False))),
            "arima.fit_ms": task_ms("arima.fit"),
            "arima.forecast_ms": task_ms("arima.forecast"),
            "optim.nm_iters": mean(s["nit"] for s in nm) if nm else 0.0,
            "optim.nm_converged_frac": mean(s["converged"] for s in nm) if nm else 0.0,
            "arma.css_calls": mean(css) if css else 0.0,
            "lstm.fit_ms": task_ms("lstm.fit"),
            "lstm.forecast_ms": task_ms("lstm.forecast"),
            "task.parse_ms": task_ms("task.parse"),
            "pipeline.self_ms": median(self_ms),
        }
