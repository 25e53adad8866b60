"""Shared sampler contract.

Every sampler in this reproduction is a pure DataFrame→DataFrame
transform. There are two: the GSW draw of :mod:`repro.core.gsw`, whose
constant-weight case ``w ≡ 1`` is the uniform Bernoulli baseline, and the
priority baseline of :mod:`repro.sampling.priority`. A sampler's output
keeps the input's dimension columns and the day column ``t``, and adds,
for each measure ``m`` it serves, a *calibrated* column ``f"{m}_est"``
with the Horvitz–Thompson-style property that

    SUM(m_est)  over sample rows satisfying (C AND t = τ)

is an unbiased (or, for priority sampling, near-unbiased) estimate of
``SUM(m)`` over *all* rows satisfying the same predicate. That single
invariant is what lets :mod:`repro.core.estimators` answer the paper's
per-day aggregation queries (eq. 4) with one per-day subset sum over the
sample (one ``np.bincount`` over ``t``). A null measure is read as 0, so
no calibrated value is null.

Samplers are deterministic in their ``seed`` — Spark's ``rand(seed)`` is
seeded per-partition, so a fixed input partitioning yields a fixed
sample; tests rely on this. It is also why :func:`per_core` must sit
above every ``rand`` in a plan, never below it.
"""
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F


def est_col(measure: str) -> str:
    """Name of the calibrated (estimation) column for a measure."""
    return f"{measure}_est"


def measure_col(measure: str) -> Column:
    """A measure as a double, with null read as 0."""
    return F.coalesce(F.col(measure).cast("double"), F.lit(0.0))


def per_core(df: DataFrame) -> DataFrame:
    """``df`` merged into one partition per core by a narrow ``coalesce``.

    Every Spark pass over the table goes through it: a cached table keeps
    one small partition per ingest batch, and a scan with a task per
    partition spends most of its time scheduling tasks and writing one
    shuffle block per task and reduce partition. The coalesce adds no
    shuffle and keeps each input partition whole, so a ``rand(seed)``
    below it draws the same values as without it.

    ``FlashP`` also stores one copy of the table through it, cut from its
    lineage (``FlashP.scan``), and every pass that draws no random numbers
    reads that copy. The draws read the caller's frame instead: the copy
    has other input partitions, so a ``rand(seed)`` over it would draw
    other values.
    """
    return df.coalesce(df.sparkSession.sparkContext.defaultParallelism)
