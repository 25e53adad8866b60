"""Tests for the FORECAST task language parser and query rewriter."""
import pytest

from repro.core.task import ForecastTask, Predicate, parse_task, parse_where, rewrite_where


class TestParseWhere:
    def test_none(self):
        assert parse_where(None) == []
        assert parse_where("  ") == []

    def test_in_list(self):
        preds = parse_where("gender IN (0, 1)")
        assert preds == [Predicate("gender", frozenset({0, 1}))]

    def test_equality(self):
        assert parse_where("gender = 1")[0].values == frozenset({1})

    def test_leq_expands(self):
        # age_group has 7 values 0..6
        assert parse_where("age_group <= 3")[0].values == frozenset({0, 1, 2, 3})

    def test_lt(self):
        assert parse_where("age_group < 3")[0].values == frozenset({0, 1, 2})

    def test_geq(self):
        assert parse_where("age_group >= 5")[0].values == frozenset({5, 6})

    def test_gt(self):
        assert parse_where("age_group > 5")[0].values == frozenset({6})

    def test_conjunction(self):
        preds = parse_where("gender = 1 AND device IN (0, 2)")
        assert [p.dim for p in preds] == ["gender", "device"]

    def test_case_insensitive_and(self):
        assert len(parse_where("gender = 1 and device = 0")) == 2

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError, match="unknown dimension"):
            parse_where("salary > 3")

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_where("gender IN (0, 5)")

    def test_disjunction_rejected(self):
        with pytest.raises(ValueError):
            parse_where("gender = 1 OR device = 0")


class TestParseTask:
    FULL = (
        "FORECAST SUM(impression) FROM ads WHERE age_group <= 3 AND gender = 1 "
        "USING (0, 149) OPTION (MODEL = 'lstm', FORE_PERIOD = 14)"
    )

    def test_full_statement(self):
        t = parse_task(self.FULL)
        assert t.measure == "impression"
        assert t.table == "ads"
        assert t.t_start == 0 and t.t_end == 149
        assert t.model == "lstm" and t.fore_period == 14
        assert len(t.predicates) == 2

    def test_defaults(self):
        t = parse_task("FORECAST SUM(click) FROM ads USING (10, 50)")
        assert t.model == "arima" and t.fore_period == 7
        assert t.where is None and t.predicates == []

    def test_n_train(self):
        t = parse_task("FORECAST SUM(cart) FROM ads USING (5, 34)")
        assert t.n_train == 30

    def test_case_insensitive_keywords(self):
        t = parse_task("forecast sum(favorite) from ads using (0, 9)")
        assert t.measure == "favorite"

    def test_paper_style_example(self):
        # Mirrors Figure 2: Age <= 30 AND Gender = F on our coded schema.
        t = parse_task(
            "FORECAST SUM(impression) FROM T WHERE age_group <= 2 AND gender = 1 "
            "USING (0, 90)"
        )
        assert t.n_train == 91  # the paper's 91 aggregation queries

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="unknown measure"):
            parse_task("FORECAST SUM(revenue) FROM ads USING (0, 9)")

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError, match="unsupported MODEL"):
            parse_task("FORECAST SUM(click) FROM ads USING (0, 9) OPTION (MODEL='prophet')")

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_task("FORECAST SUM(click) FROM ads USING (9, 3)")

    @pytest.mark.parametrize("h", [0, -3])
    def test_nonpositive_fore_period_rejected(self, h):
        with pytest.raises(ValueError, match="FORE_PERIOD"):
            parse_task(f"FORECAST SUM(click) FROM ads USING (0, 9) OPTION (FORE_PERIOD={h})")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown OPTION"):
            parse_task("FORECAST SUM(click) FROM ads USING (0, 9) OPTION (HORIZON=3)")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_task("SELECT * FROM ads")


class TestRewriteWhere:
    def test_roundtrip_to_in_lists(self):
        t = parse_task(
            "FORECAST SUM(impression) FROM ads WHERE age_group <= 1 AND gender = 0 "
            "USING (0, 9)"
        )
        assert rewrite_where(t) == "age_group IN (0, 1) AND gender IN (0)"

    def test_none_when_no_constraint(self):
        t = parse_task("FORECAST SUM(impression) FROM ads USING (0, 9)")
        assert rewrite_where(t) is None

    def test_rewritten_sql_is_valid_spark(self, ads_df):
        t = parse_task(
            "FORECAST SUM(impression) FROM ads WHERE age_group <= 1 AND gender = 0 "
            "USING (0, 9)"
        )
        n = ads_df.where(rewrite_where(t)).count()
        assert n > 0
