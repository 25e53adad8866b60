"""Tests for the numpy LSTM forecaster: the production BPTT gradient
against central finite differences, and the gate-major kernel against
forecasts recorded from the row-major kernel it replaced."""
import numpy as np
import pytest

from repro.forecast.lstm import LSTMForecaster, _sigmoid_
from repro.forecast.metrics import relative_forecast_error

BLOCKS = ("Wx", "Wh", "b", "Wd", "bd")


def loss_of(model: LSTMForecaster, X: np.ndarray, y: np.ndarray) -> float:
    pred = model._forward(model._work(X))
    return float(np.mean((pred - y) ** 2) / 2.0)


class TestGradients:
    def test_bptt_matches_finite_differences(self):
        """``_grads``, the gradient ``fit`` steps on, must match central finite
        differences in every entry of every parameter block, also at N = 1."""
        eps = 1e-6
        for n in (5, 1):
            m = LSTMForecaster(window=4, hidden=3, seed=0)
            g = np.random.default_rng(1)
            X = g.normal(0, 1, (n, 4))
            y = g.normal(0, 1, n)
            # The blocks are views that tile θ, so the same views over a copy
            # of the flat gradient name each block's analytic entries.
            assert sum(getattr(m, k).size for k in BLOCKS) == m.theta.size
            grad_view = LSTMForecaster(window=4, hidden=3)
            grad_view.theta[:] = m._grads(m._work(X), y)
            for name in BLOCKS:
                param, grad = getattr(m, name), getattr(grad_view, name)
                for idx in np.ndindex(param.shape):
                    orig = param[idx]
                    param[idx] = orig + eps
                    lp = loss_of(m, X, y)
                    param[idx] = orig - eps
                    lm = loss_of(m, X, y)
                    param[idx] = orig
                    num = (lp - lm) / (2 * eps)
                    assert num == pytest.approx(grad[idx], rel=1e-4, abs=1e-8), (n, name, idx)


def reference_series(k: int) -> np.ndarray:
    """Three fixed 150-day series: weekly, trend, random walk."""
    g = np.random.default_rng(100 + k)
    t = np.arange(150)
    if k == 0:
        return 100 + 30 * np.sin(2 * np.pi * t / 7) + g.normal(0, 2, 150)
    if k == 1:
        return 5000 + 12 * t + g.normal(0, 80, 150)
    return 1e4 + np.cumsum(g.normal(0, 150, 150))


# Recorded from the row-major kernel that preceded the gate-major one
# (300 epochs, LSTMForecaster(seed=k) on reference_series(k), 7-day forecast).
REFERENCE = {
    0: (0.0994549812372478,
        [111.9983522, 85.90253246, 70.94964307, 77.94108192, 100.6691631, 124.2210022,
         129.1722183]),
    1: (0.1763728250117962,
        [6760.169827, 6770.323147, 6773.312297, 6777.71981, 6782.964352, 6775.259866,
         6775.554175]),
    2: (0.19573896307211947,
        [9196.052168, 9133.12128, 9109.967343, 9088.568232, 9070.344096, 9054.984084,
         9042.088763]),
}


class TestKernel:
    @pytest.mark.parametrize("k", sorted(REFERENCE))
    def test_matches_row_major_reference(self, k):
        resid_std, point = REFERENCE[k]
        m = LSTMForecaster(epochs=300, seed=k).fit(reference_series(k))
        np.testing.assert_allclose(m._resid_std, resid_std, rtol=1e-3)
        np.testing.assert_allclose(m.forecast(7)[0], point, rtol=1e-3)

    def test_instances_share_no_buffers(self):
        """Fitting A, then B, then A again gives A's result bit for bit, and
        B's fit leaves the first A's forecast untouched."""
        a1 = LSTMForecaster(epochs=40, seed=1).fit(reference_series(0))
        before = a1.forecast(5)
        LSTMForecaster(epochs=40, seed=2, hidden=5).fit(reference_series(2)[:90])
        a2 = LSTMForecaster(epochs=40, seed=1).fit(reference_series(0))
        for x, y, z in zip(before, a1.forecast(5), a2.forecast(5)):
            assert np.array_equal(x, y) and np.array_equal(x, z)
        assert a1._resid_std == a2._resid_std
        assert not np.shares_memory(a1.theta, a2.theta)

    def test_clamp_keeps_a_huge_spike_finite(self):
        """The ±30 clamp: no overflow or invalid value anywhere in fit or
        forecast on a series with a 1e6σ spike, and ordered finite output."""
        series = np.random.default_rng(3).normal(500, 10, 150)
        series[100] += 1e6 * 10
        with np.errstate(over="raise", invalid="raise"):
            point, lo, hi = LSTMForecaster(epochs=300, seed=4).fit(series).forecast(7)
            a = np.array([-1e6, -40.0, 0.0, 40.0, 1e6])
            _sigmoid_(a)
        assert np.all(np.isfinite(point)) and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
        assert np.all(lo <= point) and np.all(point <= hi)
        np.testing.assert_allclose(a, 1 / (1 + np.exp([30.0, 30.0, 0.0, -30.0, -30.0])))


class TestTraining:
    def test_loss_decreases(self):
        g = np.random.default_rng(2)
        t = np.arange(120)
        series = 50 + 10 * np.sin(2 * np.pi * t / 7) + g.normal(0, 1, 120)
        few = LSTMForecaster(epochs=5, seed=3).fit(series)
        many = LSTMForecaster(epochs=300, seed=3).fit(series)
        assert many._resid_std < few._resid_std

    def test_learns_weekly_pattern(self):
        g = np.random.default_rng(4)
        t = np.arange(157)
        x = 100 + 30 * np.sin(2 * np.pi * t / 7) + g.normal(0, 2, 157)
        m = LSTMForecaster(epochs=400, seed=5).fit(x[:150])
        point, _, _ = m.forecast(7)
        assert relative_forecast_error(point, x[150:]) < 0.15

    def test_deterministic_given_seed(self):
        series = np.arange(50.0) + 7.0
        a = LSTMForecaster(epochs=30, seed=6).fit(series).forecast(3)[0]
        b = LSTMForecaster(epochs=30, seed=6).fit(series).forecast(3)[0]
        assert np.array_equal(a, b)

    def test_seed_changes_result(self):
        g = np.random.default_rng(7)
        series = g.normal(10, 1, 60)
        a = LSTMForecaster(epochs=30, seed=1).fit(series).forecast(3)[0]
        b = LSTMForecaster(epochs=30, seed=2).fit(series).forecast(3)[0]
        assert not np.allclose(a, b)

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError):
            LSTMForecaster(window=7).fit(np.arange(8.0))


class TestForecastAPI:
    def _fitted(self):
        g = np.random.default_rng(8)
        return LSTMForecaster(epochs=50, seed=9).fit(g.normal(100, 5, 80))

    def test_shapes(self):
        point, lo, hi = self._fitted().forecast(7)
        assert point.shape == lo.shape == hi.shape == (7,)

    def test_interval_ordering(self):
        point, lo, hi = self._fitted().forecast(7)
        assert np.all(lo <= point) and np.all(point <= hi)

    def test_interval_widens(self):
        _, lo, hi = self._fitted().forecast(10)
        w = hi - lo
        assert np.all(np.diff(w) > -1e-12)

    def test_forecast_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LSTMForecaster().forecast(3)

    def test_original_units(self):
        # A constant series must forecast near that constant.
        series = np.full(60, 1234.0) + np.random.default_rng(10).normal(0, 1, 60)
        point, _, _ = LSTMForecaster(epochs=200, seed=11).fit(series).forecast(5)
        assert np.all(np.abs(point - 1234.0) < 50)
