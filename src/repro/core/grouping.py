"""Measure grouping for compact GSW samples — Section 4.2.

When there are many measures, one compressed sample per *group* of
correlated measures keeps the error bounds informative. The paper
quantifies correlation as the L1 distance between the (sum-)normalized
measure vectors (Proposition 7 connects it to (θ̲,θ̄)-consistency), and
partitions measures with the greedy 2-approximation to the k-center
problem. The L1 distances are estimated on a uniform row sample, as the
paper suggests.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.sampling.base import uniform


def normalized_l1(a: np.ndarray, b: np.ndarray) -> float:
    """‖a/Σa − b/Σb‖₁ — the paper's correlation metric for measures."""
    a = np.asarray(a, dtype="float64")
    b = np.asarray(b, dtype="float64")
    if a.sum() <= 0 or b.sum() <= 0:
        raise ValueError("measure vectors must have positive sums")
    return float(np.abs(a / a.sum() - b / b.sum()).sum())


def measure_matrix(
    df: DataFrame, measures: list[str], *, rate: float = 1.0, seed: int = 0
) -> dict[str, np.ndarray]:
    """Collect (a row-sample of) the measure columns as aligned vectors."""
    sel = df if rate >= 1.0 else df.where(uniform(seed) < float(rate))
    pdf = sel.select(*measures).toPandas()
    return {m: pdf[m].to_numpy(dtype="float64") for m in measures}


def l1_distance_matrix(vectors: dict[str, np.ndarray]) -> dict[tuple[str, str], float]:
    """Pairwise normalized-L1 distances between measures."""
    names = list(vectors)
    out: dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            d = normalized_l1(vectors[a], vectors[b])
            out[(a, b)] = d
            out[(b, a)] = d
    return out


def k_center_groups(
    vectors: dict[str, np.ndarray], n_groups: int
) -> list[list[str]]:
    """Greedy k-center 2-approximation: partition measures into groups.

    First center = first measure (deterministic); each next center is
    the measure farthest from all existing centers; finally every
    measure joins its nearest center's group.
    """
    names = list(vectors)
    if n_groups < 1 or n_groups > len(names):
        raise ValueError(f"n_groups must be in [1, {len(names)}]")
    dist = l1_distance_matrix(vectors)

    def d(a: str, b: str) -> float:
        return 0.0 if a == b else dist[(a, b)]

    centers = [names[0]]
    while len(centers) < n_groups:
        far = max(
            (n for n in names if n not in centers),
            key=lambda n: min(d(n, c) for c in centers),
        )
        centers.append(far)
    groups: dict[str, list[str]] = {c: [] for c in centers}
    for n in names:
        nearest = min(centers, key=lambda c: d(n, c))
        groups[nearest].append(n)
    return [groups[c] for c in centers]
