"""Tests for normalized-L1 measure grouping (Section 4.2)."""
import numpy as np
import pytest

from repro.core.grouping import (
    k_center_groups,
    l1_distance_matrix,
    measure_matrix,
    normalized_l1,
)
from repro.synth_data import ADS_MEASURES


class TestNormalizedL1:
    def test_identical_is_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert normalized_l1(a, a) == 0.0

    def test_scale_invariant(self):
        a = np.array([1.0, 2.0, 3.0])
        assert normalized_l1(a, 100.0 * a) == pytest.approx(0.0)

    def test_symmetric(self):
        g = np.random.default_rng(0)
        a, b = g.random(20) + 0.1, g.random(20) + 0.1
        assert normalized_l1(a, b) == pytest.approx(normalized_l1(b, a))

    def test_max_is_two(self):
        # Disjoint support: L1 of two distributions is at most 2.
        a = np.array([1.0, 0.0001])
        b = np.array([0.0001, 1.0])
        assert normalized_l1(a, b) < 2.0
        assert normalized_l1(a, b) > 1.9

    def test_triangle_inequality(self):
        g = np.random.default_rng(1)
        a, b, c = (g.random(30) + 0.1 for _ in range(3))
        assert normalized_l1(a, c) <= normalized_l1(a, b) + normalized_l1(b, c) + 1e-12

    def test_rejects_nonpositive_sum(self):
        with pytest.raises(ValueError):
            normalized_l1(np.zeros(3), np.ones(3))


class TestDistanceMatrix:
    def test_symmetric_entries(self):
        v = {"a": np.array([1.0, 2.0]), "b": np.array([2.0, 1.0]), "c": np.array([1.0, 1.0])}
        d = l1_distance_matrix(v)
        assert d[("a", "b")] == d[("b", "a")]
        assert len(d) == 6  # 3 pairs × 2 directions


class TestKCenter:
    def _vectors(self):
        # Two tight clusters: {a1, a2} near each other, {b1, b2} near each other.
        base1 = np.array([10.0, 1.0, 1.0, 1.0])
        base2 = np.array([1.0, 1.0, 1.0, 10.0])
        return {
            "a1": base1,
            "a2": base1 * 3.0 + 0.1,
            "b1": base2,
            "b2": base2 * 2.0 + 0.1,
        }

    def test_two_groups_recover_clusters(self):
        groups = k_center_groups(self._vectors(), 2)
        as_sets = sorted(frozenset(g) for g in groups)
        assert frozenset({"a1", "a2"}) in as_sets
        assert frozenset({"b1", "b2"}) in as_sets

    def test_one_group_is_everything(self):
        groups = k_center_groups(self._vectors(), 1)
        assert len(groups) == 1 and len(groups[0]) == 4

    def test_n_groups_equals_n_measures(self):
        groups = k_center_groups(self._vectors(), 4)
        assert sorted(len(g) for g in groups) == [1, 1, 1, 1]

    def test_partition_is_exact(self):
        groups = k_center_groups(self._vectors(), 2)
        flat = [m for g in groups for m in g]
        assert sorted(flat) == sorted(self._vectors())

    def test_invalid_n_groups(self):
        with pytest.raises(ValueError):
            k_center_groups(self._vectors(), 0)
        with pytest.raises(ValueError):
            k_center_groups(self._vectors(), 5)

    def test_deterministic(self):
        a = k_center_groups(self._vectors(), 2)
        b = k_center_groups(self._vectors(), 2)
        assert a == b


class TestMeasureMatrix:
    def test_full_collection(self, ads_df, ads_pdf):
        vec = measure_matrix(ads_df, list(ADS_MEASURES))
        assert set(vec) == set(ADS_MEASURES)
        assert len(vec["impression"]) == len(ads_pdf)
        assert vec["impression"].sum() == ads_pdf["impression"].sum()

    def test_row_sampled_collection(self, ads_rid_df, ads_pdf):
        vec = measure_matrix(ads_rid_df, ["impression"], rate=0.1, seed=0)
        n = len(vec["impression"])
        assert 0.05 * len(ads_pdf) < n < 0.15 * len(ads_pdf)

    def test_click_groups_with_impression(self, ads_rid_df):
        """The generator makes click/cart follow impression and favorite
        diverge — grouping into 2 should separate favorite from click."""
        vec = measure_matrix(ads_rid_df, list(ADS_MEASURES), rate=0.5, seed=1)
        groups = k_center_groups(vec, 2)
        for g in groups:
            if "impression" in g:
                assert "click" in g
