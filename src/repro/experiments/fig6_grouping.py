"""§4.2 preliminary evaluation / Figure 6: aggregation error tracks the
L1 distance between a measure vector and the group's sampling-weight
vector.

The paper partitions the four measures into two equal-size groups (three
possible ways), uses the arithmetic mean of each group as its sampling
weight, and shows per-measure aggregation error and per-measure L1
distance have similar trends.
"""
from __future__ import annotations

from contextlib import closing
from itertools import combinations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.estimators import estimated_series, exact_series, relative_agg_error
from repro.core.grouping import measure_matrix, normalized_l1
from repro.core.pipeline import FlashP
from repro.experiments.common import ExpConfig
from repro.synth_data import ADS_MEASURES, random_constraint


def two_groupings() -> list[tuple[list[str], list[str]]]:
    """The three ways to split the 4 measures into two pairs."""
    out = []
    ms = list(ADS_MEASURES)
    first = ms[0]
    for other in ms[1:]:
        g1 = [first, other]
        g2 = [m for m in ms if m not in g1]
        out.append((g1, g2))
    return out


def run_fig6(df: DataFrame, cfg: ExpConfig, *, rate: float) -> pd.DataFrame:
    """Per (grouping, measure): L1 distance to the group weight vector and
    mean aggregation error using that group's compressed sample."""
    vectors = measure_matrix(df, list(ADS_MEASURES))

    with closing(FlashP(df, days=cfg.days)) as fp:
        wheres = [random_constraint(s, seed=600 + i)[0]
                  for i, s in enumerate(np.geomspace(0.005, 0.10, cfg.n_tasks))]
        truths = {
            m: [exact_series(fp.scan, w, m, cfg.days) for w in wheres] for m in ADS_MEASURES
        }

        rows = []
        for g_idx, (g1, g2) in enumerate(two_groupings()):
            for group in (g1, g2):
                name = "+".join(group)
                sample = fp.add_gsw_sample(name, rate=rate, weights=group, seed=61)
                w_vec = np.mean([vectors[m] for m in group], axis=0)
                for m in group:
                    l1 = normalized_l1(vectors[m], w_vec)
                    errs = [
                        relative_agg_error(
                            estimated_series(sample, w, m, cfg.days)[: cfg.train_days],
                            truths[m][i][: cfg.train_days],
                        )
                        for i, w in enumerate(wheres)
                    ]
                    rows.append(
                        {
                            "grouping": g_idx + 1,
                            "group": name,
                            "measure": m,
                            "l1_distance": l1,
                            "agg_err": float(np.mean(errs)),
                        }
                    )
    return pd.DataFrame(rows)
