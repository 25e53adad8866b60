"""GSW (Generalized Smoothed Weighted) sampling — the paper's Section 4.

A GSW sampler is parameterized by a positive constant ``Δ`` and positive
per-row sampling weights ``w``. Row ``i`` enters the sample with
probability ``w_i / (Δ + w_i)`` independently (eq. 6); the calibrated
measure stored with a sampled row is ``m̂_i = m_i · (Δ + w_i) / w_i``, so
``Σ_{i∈S} m̂_i`` is an unbiased estimator of any subset sum of ``m``
(Horvitz–Thompson). Everything here is pure Spark SQL column arithmetic:
Catalyst sees one ``Filter`` + ``Project`` over the input scan.

Weight choices (Sections 4.1.2 and 4.2):

* ``optimal_weight(m)``     — ``w = m``: the optimal GSW sampler (θ = 1).
* ``arithmetic_weight(ms)`` — ``w_i = mean_j m_i^(j)``: one compressed
  sample for a group of measures (Corollary 6).
* ``geometric_weight(ms)``  — ``w_i = (Π_j m_i^(j))^(1/k)`` (Corollary 5).
* ``uniform_sample``        — ``w ≡ 1`` with ``Δ = (1−r)/r``: the uniform
  baseline, Bernoulli(r) with ``m̂ = m/r``, is a GSW draw too.

``solve_delta`` finds the Δ that yields a target expected sample size by
Newton iterations on ``E|S_Δ| = Σ_i w_i/(Δ+w_i)``, run on the driver over
the table's exact weight histogram, which ``delta_for_rate`` collects in
one ``groupBy(w).count()`` pass.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.sampling.base import est_col, measure_col, uniform


def optimal_weight(measure: str) -> Column:
    """w = m — the optimal GSW sampler for a single measure (Cor. 4)."""
    return measure_col(measure)


def arithmetic_weight(measures: list[str]) -> Column:
    """w_i = arithmetic mean of the group's measures (Cor. 6)."""
    s = F.lit(0.0)
    for m in measures:
        s = s + measure_col(m)
    return s / F.lit(float(len(measures)))


def geometric_weight(measures: list[str]) -> Column:
    """w_i = geometric mean of the group's measures (Cor. 5).

    Computed as ``exp(mean(log m))`` over the row's *positive* measures.
    A plain geometric mean is 0 (``log 0`` is null in Spark) as soon as one
    measure is 0, so such a row could never be sampled and its nonzero
    group-mate measures would drop out of every estimate. Any ``w > 0``
    keeps the HT estimate unbiased; a row whose measures are all 0 gets
    ``w = 0`` and contributes nothing either way. A null measure counts as
    0 here and in the other weights, for the same reason.
    """
    logs, k = F.lit(0.0), F.lit(0.0)
    for m in measures:
        v = measure_col(m)
        logs = logs + F.when(v > 0, F.log(v)).otherwise(0.0)
        k = k + (v > 0).cast("double")
    return F.when(k > 0, F.exp(logs / k)).otherwise(0.0)


def _keep_and_calibrate(df: DataFrame, delta: float, measures: list[str]) -> DataFrame:
    """Every GSW draw's membership test and calibration: keep a row of ``df``
    iff ``_p ≤ _w/(Δ+_w)`` and attach ``{m}_est = m·(Δ+_w)/_w``."""
    out = df.where(F.col("_p") <= F.col("_w") / (F.lit(float(delta)) + F.col("_w")))
    factor = (F.lit(float(delta)) + F.col("_w")) / F.col("_w")
    for m in measures:
        out = out.withColumn(est_col(m), measure_col(m) * factor)
    return out


def gsw_sample(
    df: DataFrame,
    weight: Column,
    delta: float,
    *,
    measures: list[str],
    seed: int,
) -> DataFrame:
    """Draw a GSW sample and attach calibrated measures.

    Output = input columns + ``_w`` (the row's sampling weight) + ``_p``
    (its uniform draw) + one ``{m}_est`` per requested measure (a null
    measure is read as 0, as in the weights). A row survives iff
    ``uniform(seed) ≤ w/(Δ+w)``.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not measures:
        raise ValueError("measures must be non-empty")
    # `_p` is kept on sampled rows: Section 4.1's incremental maintenance
    # (see `increase_delta`) filters on it again without rescanning T.
    out = df.withColumn("_w", weight).withColumn("_p", uniform(seed))
    return _keep_and_calibrate(out, delta, measures)


def uniform_sample(
    df: DataFrame, rate: float, *, measures: list[str], seed: int
) -> DataFrame:
    """Bernoulli(rate) sample — the paper's uniform baseline — drawn as
    the constant-weight GSW sample: ``w ≡ 1`` and ``Δ = (1−rate)/rate``
    give inclusion probability ``rate`` and ``{m}_est = m/rate``. Its error
    grows with the measure's range [29], which is why it loses to weighted
    sampling on heavy-tailed measures (Exp-IV).

    Δ = 0 at rate 1 is safe here, as ``w ≡ 1`` keeps ``Δ+w`` positive.
    """
    if not (0 < rate <= 1):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    out = df.withColumn("_w", F.lit(1.0)).withColumn("_p", uniform(seed))
    return _keep_and_calibrate(out, (1 - rate) / rate, measures)


def increase_delta(
    sample: DataFrame, new_delta: float, *, measures: list[str]
) -> DataFrame:
    """Shrink an existing GSW sample from Δ to Δ′ > Δ (Section 4.1).

    A row drawn at Δ survives at Δ′ iff ``p_i ≤ w_i/(Δ′+w_i)``, the test
    ``gsw_sample`` draws with (the paper writes it ``(1/p_i - 1)·w_i ≥ Δ′``,
    which divides by zero under ANSI mode when ``p_i = 0``), so the update
    never touches rows outside the current sample — the paper's incremental
    maintenance. Calibrated measures are recomputed for the new Δ′. A
    uniform sample is a GSW sample, so it shrinks the same way.
    """
    return _keep_and_calibrate(sample, new_delta, measures)


def solve_delta(
    weights: np.ndarray,
    counts: np.ndarray,
    target_size: float,
    *,
    max_iter: int = 25,
    rtol: float = 0.02,
) -> float:
    """Find Δ with ``E|S_Δ| ≈ target_size`` by safeguarded Newton.

    The population is given as a weight histogram: ``counts[j]`` rows have
    weight ``weights[j]``. ``f(Δ) = Σ_j c_j·w_j/(Δ+w_j)`` is strictly
    decreasing and convex in Δ, with ``f(0) = n`` and ``f(Δ) ≈ W/Δ`` for
    large Δ; each iteration evaluates ``f`` and ``f'`` over the histogram
    in numpy. The initial guess ``Δ₀ = W/target`` satisfies
    ``f(Δ₀) ≤ target``; a bisection bracket guards against overshoot into
    Δ ≤ 0. Raises ``ValueError`` on a NaN or negative weight and
    ``RuntimeError`` if ``f`` is not within ``rtol`` of the target after
    ``max_iter`` iterations.
    """
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    w = np.asarray(weights, dtype="float64")
    c = np.asarray(counts, dtype="float64")
    if np.isnan(w).any() or (w < 0).any():
        raise ValueError("weights must be non-negative and not NaN (null)")
    W, n = float(c @ w), int(c.sum())
    if target_size >= n:  # asking for (at least) everything
        # Any tiny Δ keeps nearly all rows; Δ = W/n² keeps p_i ≈ 1.
        return max(W / (n * n), 1e-12)
    lo, hi = 1e-12, None  # f(lo) ≈ n > target; hi: f(hi) < target once found
    delta = W / target_size
    for _ in range(max_iter):
        f = float(c @ (w / (delta + w)))
        dfd = -float(c @ (w / ((delta + w) * (delta + w))))
        if abs(f - target_size) <= rtol * target_size:
            return delta
        if f > target_size:
            lo = max(lo, delta)
        else:
            hi = delta if hi is None else min(hi, delta)
        step = (f - target_size) / dfd if dfd != 0 else 0.0
        nxt = delta - step
        if (nxt <= lo) or (hi is not None and nxt >= hi) or step == 0.0:
            nxt = (lo + hi) / 2 if hi is not None else delta / 2
        delta = nxt
    raise RuntimeError(
        f"solve_delta: no Δ within rtol={rtol} of target {target_size:g} "
        f"after {max_iter} iterations (last Δ={delta:g})"
    )


def delta_for_rate(df: DataFrame, weight: Column, rate: float, **kw) -> float:
    """Δ for a target sampling *rate* (fraction of |T|).

    One Spark pass collects the exact weight histogram
    (``groupBy(w).count()``); ``solve_delta`` then runs on the driver.
    """
    hist = (
        df.select(weight.alias("w"))
        .groupBy("w").count().toPandas()
        .sort_values("w")  # a fixed summation order, whatever the partitioning
    )
    n = hist["count"].sum()
    return solve_delta(hist["w"].to_numpy(dtype="float64"), hist["count"], rate * n, **kw)
