"""Uniform Bernoulli sampling — the paper's baseline sampler.

Each row survives independently with probability ``rate``; the
calibrated measure is ``m / rate`` (inverse-probability weighting), so
subset sums estimated on the sample are unbiased. The error bound is
proportional to the *range* of the measure [29], which is why it loses
to weighted sampling on heavy-tailed measures — exactly the comparison
Exp-IV makes.
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.sampling.base import est_col, measure_col


def uniform_sample(
    df: DataFrame, rate: float, *, measures: list[str], seed: int
) -> DataFrame:
    """Bernoulli(rate) sample with calibrated columns ``{m}_est = m/rate``
    (a null ``m`` is read as 0)."""
    if not (0 < rate <= 1):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    out = df.where(F.rand(seed) < F.lit(float(rate)))
    for m in measures:
        out = out.withColumn(est_col(m), measure_col(m) / F.lit(float(rate)))
    return out
