"""Tests for per-day aggregation (eq. 4), oracle-checked against DuckDB."""
import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.estimators import (
    estimated_series,
    exact_series,
    relative_agg_error,
)
from repro.core.gsw import delta_for_rate, gsw_sample, optimal_weight
from repro.oracle import assert_equivalent
from repro.synth_data import ADS_DIMS, random_constraint
from tests.conftest import DAYS


def _duckdb_series(pdf: pd.DataFrame, where: str | None, column: str, days: int) -> np.ndarray:
    """``SUM(column)`` per day over ``pdf`` in DuckDB, with ``where`` as written."""
    con = duckdb.connect()
    try:
        con.register("s", pdf)
        w = f"WHERE {where}" if where else ""
        rows = con.execute(f"SELECT t, SUM({column}) FROM s {w} GROUP BY t").fetchall()
    finally:
        con.close()
    want = np.zeros(days)
    for t, v in rows:
        want[int(t)] = float(v)
    return want


class TestExactSeries:
    @pytest.mark.parametrize(
        "where",
        [
            None,
            "gender IN (1)",
            "age_group IN (0, 1, 2) AND device IN (0)",
            "interest IN (2, 4) AND city_tier IN (1, 2, 3)",
        ],
    )
    def test_matches_duckdb(self, ads_df, ads_pdf, where):
        got = exact_series(ads_df, where, "impression", DAYS)
        w = f"WHERE {where}" if where else ""
        rows = duckdb.sql(
            f"SELECT t, SUM(impression) s FROM ads_pdf {w} GROUP BY t"
        ).fetchall()
        want = np.zeros(DAYS)
        for t, s in rows:
            want[int(t)] = float(s)
        assert np.allclose(got, want)

    def test_spark_groupby_oracle(self, ads_df, ads_pdf):
        """The exact Catalyst plan (Filter→Aggregate) against the oracle."""
        from pyspark.sql import functions as F

        where = "gender IN (1) AND device IN (0, 1)"
        spark_df = (
            ads_df.where(where)
            .groupBy("t")
            .agg(F.sum("impression").alias("total"))
        )
        assert_equivalent(
            spark_df,
            f"SELECT t, SUM(impression) AS total FROM ads WHERE {where} GROUP BY t",
            ads=ads_pdf,
        )

    def test_dense_output_with_missing_days(self, ads_df):
        # An impossible constraint yields an all-zero series of full length.
        got = exact_series(ads_df, "gender IN (0) AND gender IN (1)", "impression", DAYS)
        assert got.shape == (DAYS,) and np.all(got == 0)

    @pytest.mark.parametrize("series", [exact_series, estimated_series],
                             ids=lambda f: f.__name__)
    def test_rejects_days_outside_range(self, ads_df, series):
        # The relation has DAYS days; a shorter series must not drop the rest.
        src = ads_df.withColumn("impression_est", F.col("impression").cast("double"))
        with pytest.raises(ValueError, match="outside"):
            series(src, None, "impression", DAYS - 1)

    @pytest.mark.parametrize("measure", ["click", "impression"])
    @pytest.mark.parametrize(
        "where", [None, "gender IN (1) AND device IN (0, 1)", "gender IN (0) AND gender IN (1)"]
    )
    def test_many_partitions_match_duckdb(self, ads_wide_df, ads_wide_pdf, where, measure):
        """A table cached in many more partitions than cores, with 30% of
        ``click`` null: Spark's SUM and DuckDB's both skip the nulls."""
        got = exact_series(ads_wide_df, where, measure, DAYS)
        want = _duckdb_series(ads_wide_pdf, where, measure, DAYS)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_each_measure(self, ads_df, ads_pdf):
        for m in ("favorite", "click", "cart"):
            got = exact_series(ads_df, None, m, DAYS)
            want = ads_pdf.groupby("t")[m].sum().to_numpy(dtype=float)
            assert np.allclose(got, want)


class TestEstimatedSeries:
    def test_unsampled_estimate_vs_oracle(self, ads_rid_df, ads_pdf):
        """HT estimate recomputed in DuckDB over the same sample rows."""
        delta = delta_for_rate(ads_rid_df, optimal_weight("impression"), 0.05)
        s = gsw_sample(ads_rid_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=0)
        got = estimated_series(s, "gender IN (1)", "impression", DAYS)
        spdf = s.toPandas()
        rows = duckdb.sql(
            "SELECT t, SUM(impression_est) FROM spdf WHERE gender IN (1) GROUP BY t"
        ).fetchall()
        want = np.zeros(DAYS)
        for t, v in rows:
            want[int(t)] = float(v)
        assert np.allclose(got, want)

    def test_estimates_track_truth(self, ads_rid_df):
        where, _ = random_constraint(0.1, seed=0)
        truth = exact_series(ads_rid_df, where, "impression", DAYS)
        delta = delta_for_rate(ads_rid_df, optimal_weight("impression"), 0.10)
        s = gsw_sample(ads_rid_df, optimal_weight("impression"), delta,
                       measures=["impression"], seed=1).cache()
        est = estimated_series(s, where, "impression", DAYS)
        assert relative_agg_error(est, truth) < 0.5
        # correlated day-to-day: the estimated series follows the true one
        assert np.corrcoef(est, truth)[0, 1] > 0.5


# The kernel's oracle property test: small stored samples over three dims,
# few enough rows that some days have zero or one row.
_KDAYS = 6
_KDIMS = ("gender", "device", "interest")
_KCOLS = ["t", *_KDIMS, "impression_est"]
_row = st.tuples(
    st.integers(0, _KDAYS - 1),
    *(st.integers(0, ADS_DIMS[d] - 1) for d in _KDIMS),
    st.floats(0, 1e6),
)


def _frame(rows) -> pd.DataFrame:
    pdf = pd.DataFrame(rows, columns=_KCOLS)
    return pdf.astype({c: "int32" for c in _KCOLS[:-1]} | {"impression_est": "float64"})


@st.composite
def _constraints(draw):
    """A conjunction in every operator form ``parse_where`` accepts; a dim
    may repeat, so some conjunctions contradict themselves."""
    clauses = []
    for dim in draw(st.lists(st.sampled_from(_KDIMS), max_size=4)):
        card = ADS_DIMS[dim]
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "IN"]))
        if op == "IN":
            vals = draw(st.lists(st.integers(0, card - 1), min_size=1, max_size=card, unique=True))
            clauses.append(f"{dim} IN ({', '.join(map(str, vals))})")
        else:
            clauses.append(f"{dim} {op} {draw(st.integers(0, card))}")
    return " AND ".join(clauses) or None


class TestEstimatedSeriesKernel:
    """The in-memory kernel against DuckDB over the same stored rows."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_row, max_size=3 * _KDAYS), where=_constraints())
    @example(rows=[], where=None)
    @example(rows=[], where="gender = 1")
    @example(rows=[(0, 1, 0, 0, 2.5), (0, 0, 1, 3, 1.0), (2, 1, 2, 11, 7.0)],
             where="gender = 0 AND gender = 1")
    @example(rows=[(1, 1, 0, 0, 2.5), (3, 1, 1, 3, 1.0), (3, 1, 2, 11, 7.0)],
             where="gender IN (1) AND device < 2")
    def test_matches_duckdb(self, rows, where):
        pdf = _frame(rows)
        got = estimated_series(pdf, where, "impression", _KDAYS)
        assert got.dtype == np.float64 and got.shape == (_KDAYS,)
        want = _duckdb_series(pdf, where, "impression_est", _KDAYS)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_rejects_codes_outside_cardinality(self):
        pdf = _frame([(0, 2, 0, 0, 1.0)])  # gender has 2 values
        with pytest.raises(ValueError, match="gender"):
            estimated_series(pdf, "gender = 1", "impression", _KDAYS)


class TestRelativeAggError:
    def test_zero_for_exact(self):
        t = np.array([1.0, 2.0, 3.0])
        assert relative_agg_error(t.copy(), t) == 0.0

    def test_simple_value(self):
        t = np.array([10.0, 10.0])
        e = np.array([11.0, 9.0])
        assert relative_agg_error(e, t) == pytest.approx(0.1)

    def test_skips_zero_truth_days(self):
        t = np.array([0.0, 10.0])
        e = np.array([5.0, 12.0])
        assert relative_agg_error(e, t) == pytest.approx(0.2)

    def test_all_zero_truth(self):
        assert relative_agg_error(np.zeros(3), np.zeros(3)) == 0.0
        assert relative_agg_error(np.ones(3), np.zeros(3)) == float("inf")
