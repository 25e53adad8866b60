"""Shared sampler contract.

Every sampler is a pure DataFrame→DataFrame transform: the GSW draw of
:mod:`repro.core.gsw`, whose constant-weight case ``w ≡ 1`` is the
uniform Bernoulli baseline, and the priority baseline of
:mod:`repro.sampling.priority`. Its input carries the row ids of
:func:`with_row_id`, and its randomness is :func:`uniform`, a hash of a
row's id and the ``seed``, so a sample is fixed by its rows' ids and its
seed, whatever the frame's partitioning. Its output keeps the input's
columns and adds, for each measure ``m`` it serves, a *calibrated*
column ``f"{m}_est"`` with the Horvitz–Thompson-style property that

    SUM(m_est)  over sample rows satisfying (C AND t = τ)

is an unbiased (or, for priority sampling, near-unbiased) estimate of
``SUM(m)`` over *all* rows satisfying the same predicate. That single
invariant is what lets :mod:`repro.core.estimators` answer the paper's
per-day aggregation queries (eq. 4) with one per-day subset sum over the
sample (one ``np.bincount`` over ``t``). A null measure is read as 0, so
no calibrated value is null.
"""
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F


def est_col(measure: str) -> str:
    """Name of the calibrated (estimation) column for a measure."""
    return f"{measure}_est"


def measure_col(measure: str) -> Column:
    """A measure as a double, with null read as 0."""
    return F.coalesce(F.col(measure).cast("double"), F.lit(0.0))


def with_row_id(df: DataFrame) -> DataFrame:
    """``df`` with a row id ``_rid``, fixed by ``df``'s own partitions."""
    return df.withColumn("_rid", F.monotonically_increasing_id())


def uniform(seed: int) -> Column:
    """A row's draw in (0, 1] from its ``_rid`` and ``seed``: ``m/u`` is always
    defined, and ``u ≤ w/(Δ+w)`` never keeps a row with ``w = 0``."""
    return (F.pmod(F.xxhash64("_rid", F.lit(seed)), F.lit(2**53)) + 1) / float(2**53)


def per_core(df: DataFrame) -> DataFrame:
    """``df`` merged into one partition per core by a narrow ``coalesce``.

    Every Spark pass over the table goes through it: a cached table keeps
    one small partition per ingest batch, and a scan with a task per
    partition spends most of its time scheduling tasks and writing one
    shuffle block per task and reduce partition. The coalesce adds no
    shuffle.
    """
    return df.coalesce(df.sparkSession.sparkContext.defaultParallelism)
