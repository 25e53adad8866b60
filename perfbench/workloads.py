"""The benchmark's workloads: the catalog each one builds offline and the
stream of FORECAST tasks one closed-loop client sends to it.

Tasks come in blocks of four. A block is a random permutation of the four
measures, and its four selectivities fall one in each quarter of the
log-range, in a random order. Each measure walks through the samples that
carry it in a random order, reshuffled after every pass. Every task on its
own therefore picks its measure and its sample uniformly and its
selectivity log-uniformly in [0.5%, 10%]; the stratification only stops a
short run from drawing, say, mostly 0.5%-selective tasks on the 0.5%
sample, which keeps run-to-run spread down. A workload without a catalog
sends every task to the full table.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.synth_data import ADS_MEASURES, random_constraint

DAYS = 165
T_START, T_END = 0, 149
HORIZON = 7
ARIMA_GRID = {"max_p": 2, "max_q": 2, "max_d": 1}
LSTM_EPOCHS = 300
SEL_RANGE = (0.005, 0.10)
MAX_DIMS = 3


@dataclass(frozen=True)
class SampleSpec:
    """One sample of a workload's catalog.

    ``weights``: a tuple of measures is a C-GSW (arithmetic-mean) sample,
    one measure name an Opt-GSW sample, ``None`` a uniform sample.
    """

    name: str
    rate: float
    weights: tuple[str, ...] | str | None

    @property
    def measures(self) -> tuple[str, ...]:
        if self.weights is None:
            return tuple(ADS_MEASURES)
        if isinstance(self.weights, str):
            return (self.weights,)
        return self.weights


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                       # "arima" or "lstm"
    catalog: tuple[SampleSpec, ...]  # empty: every task scans the full table


_ALL = tuple(ADS_MEASURES)

# Why each workload exists, and which metrics each layer should move on it:
# README.md. The cheapest comes first.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("full-scan", "lstm", ()),
        Workload(
            "sampled-arima",
            "arima",
            (
                SampleSpec("cgsw-0.5", 0.005, _ALL),
                SampleSpec("cgsw-2", 0.02, _ALL),
                SampleSpec("cgsw-10", 0.10, _ALL),
                SampleSpec("optgsw-impression-2", 0.02, "impression"),
                SampleSpec("uniform-2", 0.02, None),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Task:
    text: str       # the FORECAST statement the program parses
    measure: str
    where: str      # the constraint as generated, for the DuckDB oracle
    source: str     # a sample name, or "full"


def task_text(measure: str, where: str, model: str) -> str:
    return (
        f"FORECAST SUM({measure}) FROM ads WHERE {where} "
        f"USING ({T_START}, {T_END}) "
        f"OPTION (MODEL='{model}', FORE_PERIOD={HORIZON})"
    )


def task_stream(workload: Workload, seed: int, stream: int = 0) -> Iterator[Task]:
    """An endless, seeded stream of tasks for ``workload``.

    ``stream`` separates independent streams of one seed (warm-up tasks
    use another stream than timed ones).
    """
    g = np.random.default_rng([seed, stream])
    lo, hi = np.log(SEL_RANGE[0]), np.log(SEL_RANGE[1])
    k = len(ADS_MEASURES)
    carriers = {m: [s.name for s in workload.catalog if m in s.measures] for m in ADS_MEASURES}
    queues: dict[str, list[str]] = {m: [] for m in ADS_MEASURES}
    while True:
        measures = g.permutation(k)
        strata = g.permutation(k)
        for i in range(k):
            measure = ADS_MEASURES[int(measures[i])]
            u = (strata[i] + g.random()) / k
            sel = float(np.exp(lo + u * (hi - lo)))
            where, _ = random_constraint(
                sel, seed=int(g.integers(1 << 31)), min_dims=1, max_dims=MAX_DIMS
            )
            if not carriers[measure]:
                source = "full"
            else:
                if not queues[measure]:
                    queues[measure] = [carriers[measure][j]
                                       for j in g.permutation(len(carriers[measure]))]
                source = queues[measure].pop()
            yield Task(task_text(measure, where, workload.model), measure, where, source)
