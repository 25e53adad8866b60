"""Priority sampling [Duffield, Lund, Thorup; Alon et al.] — the
"theoretically optimal" weighted-sampling baseline in Exp-IV.

Per time partition ``t`` (samplers run independently per day, which is
what gives the forecasting layer independent noise ε_t):

* each row gets priority ``q_i = m_i / u_i`` with ``u_i = uniform(seed)``;
* the ``k`` highest-priority rows form the sample;
* ``τ_t`` is the (k+1)-th largest priority in day ``t``;
* the estimator for a sampled row is ``m̂_i = max(m_i, τ_t)``.

``Σ m̂_i`` over sampled rows of any subset is an unbiased estimate of the
subset sum, with RSTD ``≤ sqrt(1/(k-1))``. Implemented with two window
functions over the day partition, the rank and τ, which share one shuffle
— no join, no RDDs, no Python row UDFs.
"""
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.sampling.base import est_col, uniform


def priority_sample(
    df: DataFrame, k_per_day: int, *, measure: str, seed: int
) -> DataFrame:
    """Priority sample of ``k_per_day`` rows per day for one measure.

    Output keeps input columns and adds ``{measure}_est``. Days with
    ≤ ``k_per_day`` rows are kept whole with τ = 0 (estimator exact).
    """
    if k_per_day < 1:
        raise ValueError(f"k_per_day must be >= 1, got {k_per_day}")
    m = F.col(measure).cast("double")
    with_q = df.withColumn("_q", m / uniform(seed))
    ranked = with_q.withColumn(
        "_rn", F.row_number().over(Window.partitionBy("t").orderBy(F.desc("_q")))
    )
    # τ comes from a second window over the same day partitions, which the
    # ranking already clustered and sorted by t, so the draw shuffles once.
    tau = F.max(F.when(F.col("_rn") == k_per_day + 1, F.col("_q")))
    sample = (
        ranked.withColumn("_tau", tau.over(Window.partitionBy("t")))
        .where(F.col("_rn") <= k_per_day)
        .withColumn(
            est_col(measure),
            F.greatest(m, F.coalesce(F.col("_tau"), F.lit(0.0))),
        )
        .drop("_q", "_rn", "_tau")
    )
    return sample
