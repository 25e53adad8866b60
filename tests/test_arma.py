"""Tests for the CSS ARMA fitter and its forecast machinery."""
import itertools

import numpy as np
import pytest

from repro.forecast import arima, arma
from repro.forecast.arima import auto_arima
from repro.forecast.arma import (
    ARMAResult,
    _constrain,
    _unconstrain,
    css_residuals,
    fit_arma,
    hannan_rissanen,
)
from repro.forecast.optim import nelder_mead
from tests.test_arima import trend_season


def _css_reference(x, c, ar, ma):
    """The plain numpy-scalar CSS recursion the fast kernel must reproduce bit for bit."""
    p, q = len(ar), len(ma)
    n = len(x)
    arpart = x.copy() - c
    for i in range(p):
        arpart[p:] -= ar[i] * x[p - 1 - i : n - 1 - i]
    if q == 0:
        return arpart[p:]
    e = np.zeros(n)
    for t in range(p, n):
        acc = arpart[t]
        for j in range(min(q, t)):
            acc -= ma[j] * e[t - 1 - j]
        e[t] = acc
    return e[p:]


def _min_root_modulus(ar, ma):
    """Smallest |z| over the roots of ``1 - Σ ar_i z^i`` and ``1 + Σ ma_j z^j``."""
    polys = [np.concatenate(([1.0], -ar)), np.concatenate(([1.0], ma))]
    return min(np.abs(np.roots(p[::-1])).min() for p in polys if len(p) > 1)


# Every fitted root lies outside 1.05, up to rounding in np.roots.
_ROOT_BOUND = 1.05 * (1 - 1e-9)


def simulate_arma(ar, ma, n, *, sigma=1.0, const=0.0, seed=0):
    ar, ma = np.atleast_1d(ar), np.atleast_1d(ma)
    g = np.random.default_rng(seed)
    u = g.normal(0, sigma, n + 50)
    x = np.zeros(n + 50)
    for t in range(max(len(ar), len(ma)) + 1, n + 50):
        x[t] = const + u[t]
        for i, a in enumerate(ar):
            x[t] += a * x[t - 1 - i]
        for j, b in enumerate(ma):
            x[t] += b * u[t - 1 - j]
    return x[50:]


class TestCssResiduals:
    def test_white_noise_model(self):
        x = np.array([1.0, -2.0, 3.0])
        e = css_residuals(x, 0.0, np.array([]), np.array([]))
        assert np.allclose(e, x)

    def test_constant_only(self):
        x = np.array([5.0, 5.0, 5.0])
        e = css_residuals(x, 5.0, np.array([]), np.array([]))
        assert np.allclose(e, 0.0)

    def test_ar1_hand_computed(self):
        x = np.array([1.0, 2.0, 3.0])
        e = css_residuals(x, 0.0, np.array([0.5]), np.array([]))
        # conditioned on x0: e1 = 2-0.5·1 = 1.5, e2 = 3-0.5·2 = 2
        assert np.allclose(e, [1.5, 2.0])

    def test_ma1_recursion(self):
        x = np.array([1.0, 1.0, 1.0])
        e = css_residuals(x, 0.0, np.array([]), np.array([0.5]))
        # e0 = 1; e1 = 1-0.5·1 = 0.5; e2 = 1-0.5·0.5 = 0.75
        assert np.allclose(e, [1.0, 0.5, 0.75])

    def test_exact_ar1_residuals_recover_noise(self):
        g = np.random.default_rng(1)
        u = g.normal(0, 1, 100)
        x = np.zeros(100)
        for t in range(1, 100):
            x[t] = 0.7 * x[t - 1] + u[t]
        e = css_residuals(x, 0.0, np.array([0.7]), np.array([]))
        assert np.allclose(e, u[1:])

    def test_length_conditioning(self):
        x = np.arange(10.0)
        assert len(css_residuals(x, 0.0, np.array([0.1, 0.1]), np.array([]))) == 8

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(5))
    def test_bit_identical_to_reference(self, p, q):
        for seed in range(4):
            g = np.random.default_rng(seed)
            x = g.normal(0.0, 1.0, 150)
            c = g.normal()
            ar = g.uniform(-0.9, 0.9, p)
            # seeds 2, 3: MA coefficients near ±1, where the recursion barely decays
            ma = g.uniform(-0.9, 0.9, q) if seed < 2 else g.choice([-1, 1], q) * g.uniform(0.98, 1.0, q)
            got = css_residuals(x, c, ar, ma)
            assert np.array_equal(got, _css_reference(x, c, ar, ma))


class TestConstrain:
    """PACF values map to AR (``_constrain``) and MA (``-_constrain``) roots outside 1.05."""

    @staticmethod
    def _roots_bound(u, kind):
        c = _constrain(np.asarray(u, dtype="float64"))
        none = np.empty(0)
        return _min_root_modulus(c, none) if kind == "ar" else _min_root_modulus(none, -c)

    @pytest.mark.parametrize("kind", ["ar", "ma"])
    def test_random_values_keep_roots_outside(self, kind):
        g = np.random.default_rng(0)
        for _ in range(2000):
            u = g.normal(0.0, 4.0, g.integers(1, 5))
            assert self._roots_bound(u, kind) >= _ROOT_BOUND

    @pytest.mark.parametrize("kind", ["ar", "ma"])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_saturated_values_stay_finite_and_outside(self, kind, k):
        for signs in itertools.product([-1.0, 1.0], repeat=k):
            u = 40.0 * np.array(signs)
            assert np.all(np.isfinite(_constrain(u)))
            assert self._roots_bound(u, kind) >= _ROOT_BOUND

    @pytest.mark.parametrize("k", range(1, 5))
    def test_step_down_inverts(self, k):
        """``_constrain ∘ _unconstrain`` is the identity on polynomials whose
        partials lie inside the start clip."""
        g = np.random.default_rng(k)
        for _ in range(200):
            c = _constrain(np.arctanh(g.uniform(-0.98, 0.98, k)))
            assert np.allclose(_constrain(_unconstrain(c)), c, rtol=0, atol=1e-12)

    def test_step_down_clips_outside_radius(self):
        """A root inside the radius maps to the clipped partial, not to NaN."""
        u = _unconstrain(np.array([1.5, -0.2]))
        assert np.all(np.isfinite(u)) and np.all(np.abs(np.tanh(u)) <= 0.99 + 1e-12)

    def test_zero_maps_to_zero(self):
        for k in range(5):
            assert np.array_equal(_constrain(np.zeros(k)), np.zeros(k))


class TestAutoArimaMatchesReference:
    """auto_arima with the fast CSS kernel equals auto_arima with the reference one."""

    @staticmethod
    def _series():
        g = np.random.default_rng(3)
        t = np.arange(120)
        trend = 1000 + 5 * t + 100 * np.sin(2 * np.pi * t / 7) + g.normal(0, 20, 120)
        walk = np.cumsum(g.normal(0, 1, 120))
        ar2 = simulate_arma([0.5, -0.3], [], 120, seed=4)
        return [trend, walk, ar2]

    @staticmethod
    def _run(monkeypatch, x, grid, css):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return css(*args)

        monkeypatch.setattr(arma, "css_residuals", counted)
        fit = auto_arima(x, **grid)
        return fit, fit.forecast(7), calls[0]

    @pytest.mark.parametrize(
        "grid", [{"max_p": 2, "max_q": 2, "max_d": 1}, {}], ids=["bench", "default"]
    )
    def test_same_fits(self, monkeypatch, grid):
        for x in self._series():
            fast, fast_fc, fast_calls = self._run(monkeypatch, x, grid, css_residuals)
            ref, ref_fc, ref_calls = self._run(monkeypatch, x, grid, _css_reference)
            assert fast.order == ref.order and fast.aic == ref.aic
            assert all(np.array_equal(a, b) for a, b in zip(fast_fc, ref_fc))
            assert fast.arma.nit == ref.arma.nit
            assert fast_calls == ref_calls


def _fit_arma_nelder_mead(x, p, q, *, max_iter=2000):
    """CSS fit by Nelder–Mead from the white-noise start alone: the reference
    whose chosen AIC the Levenberg–Marquardt fit must match or beat."""
    x = np.asarray(x, dtype="float64")
    n = len(x)
    if n <= p + q + 1:
        raise ValueError(f"series too short ({n}) for ARMA({p},{q})")
    mean = float(x.mean())

    def unpack(theta):
        return float(theta[0]), _constrain(theta[1 : 1 + p]), -_constrain(theta[1 + p :])

    def objective(theta):
        e = css_residuals(x, *unpack(theta))
        return float(np.sum(e * e))

    theta0 = np.zeros(1 + p + q)
    theta0[0] = mean
    if p >= 1 and n > 2:
        xc = x - mean
        denom = float(np.dot(xc, xc))
        if denom > 0:
            ar1 = float(np.clip(float(np.dot(xc[1:], xc[:-1])) / denom, -0.9, 0.9))
            theta0[0] = mean * (1.0 - ar1)
            theta0[1] = np.arctanh(ar1 * 1.05)
    res = nelder_mead(objective, theta0, max_iter=max_iter)
    c, ar, ma = unpack(res.x)
    e = css_residuals(x, c, ar, ma)
    sigma2 = float(np.sum(e * e)) / len(e)
    aic = len(e) * np.log(max(sigma2, 1e-300)) + 2 * (p + q + 2)
    return ARMAResult(p, q, c, ar, ma, sigma2, float(aic), e, x, res.nit, res.converged)


def _arima_test_series():
    """Every series ``tests/test_arima.py`` fits, and the reference class's three."""
    rng = np.random.default_rng
    return [
        trend_season(157, seed=7)[:150],
        trend_season(150, slope=10.0, noise=5.0, seed=8),
        rng(9).normal(50, 1, 200),
        trend_season(100, seed=10),
        np.array([3.0, 5.0, 4.0, 6.0, 5.0, 7.0]),
        trend_season(100, seed=12),
        trend_season(120, seed=11),
        trend_season(120),
        10.0 + 3.0 * np.arange(60),
        rng(1).normal(0, 1, 300),
        np.cumsum(rng(2).normal(0, 1, 300)),
        np.cumsum(np.cumsum(rng(3).normal(0, 1, 300))),
        np.cumsum(rng(5).normal(0, 3.0, 800)),
        np.cumsum(rng(6).normal(0, 1, 400)),
        *TestAutoArimaMatchesReference._series(),
    ]


GRIDS = {"bench": {"max_p": 2, "max_q": 2, "max_d": 1}, "default": {}}


class TestPoolMatchesSerial:
    """Fitted on spawned worker processes, as ``FlashP`` fits them, every
    test series gets the fit the builtin ``map`` gives, bit for bit."""

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("i", range(len(_arima_test_series())))
    def test_same_fit(self, fit_pool, grid, i):
        x = _arima_test_series()[i]
        got, want = auto_arima(x, map=fit_pool.map, **grid), auto_arima(x, **grid)
        assert (got.order, got.aic) == (want.order, want.aic)
        assert got.failures == want.failures
        assert got.candidates == want.candidates
        for g, w in zip(got.forecast(7), want.forecast(7)):
            assert np.array_equal(g, w)


class TestNotWorseThanNelderMead:
    """On every test series, auto_arima's chosen AIC is at most that of the
    Nelder–Mead-driven reference (``_fit_arma_nelder_mead``)."""

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("i", range(len(_arima_test_series())))
    def test_chosen_aic(self, monkeypatch, grid, i):
        x = _arima_test_series()[i]
        fit = auto_arima(x, **grid)
        monkeypatch.setattr(arima, "fit_arma", _fit_arma_nelder_mead)
        ref = auto_arima(x, **grid)
        assert fit.aic <= ref.aic + 1e-5


class TestHannanRissanen:
    def test_recovers_ar2(self):
        x = simulate_arma([0.5, -0.3], [], 4000, const=1.0, seed=21)
        c, ar, ma = hannan_rissanen(x, 2, 0)
        assert np.allclose(ar, [0.5, -0.3], atol=0.05) and ma.size == 0
        assert c == pytest.approx(1.0, abs=0.1)

    def test_recovers_arma11(self):
        x = simulate_arma([0.6], [0.3], 4000, seed=22)
        _, ar, ma = hannan_rissanen(x, 1, 1)
        assert ar[0] == pytest.approx(0.6, abs=0.07)
        assert ma[0] == pytest.approx(0.3, abs=0.07)

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (2, 2), (1, 0)])
    def test_shortest_series_gives_finite_estimates(self, p, q):
        x = np.random.default_rng(0).normal(size=p + q + 2)
        assert all(np.all(np.isfinite(v)) for v in hannan_rissanen(x, p, q))


class TestFitRecovery:
    def test_recovers_ar1(self):
        x = simulate_arma([0.7], [], 3000, seed=2)
        fit = fit_arma(x, 1, 0)
        assert fit.ar[0] == pytest.approx(0.7, abs=0.05)

    def test_recovers_ma1(self):
        x = simulate_arma([], [0.5], 3000, seed=3)
        fit = fit_arma(x, 0, 1)
        assert fit.ma[0] == pytest.approx(0.5, abs=0.05)

    def test_recovers_arma11(self):
        x = simulate_arma([0.6], [0.3], 4000, seed=4)
        fit = fit_arma(x, 1, 1)
        assert fit.ar[0] == pytest.approx(0.6, abs=0.07)
        assert fit.ma[0] == pytest.approx(0.3, abs=0.07)

    def test_recovers_sigma2(self):
        x = simulate_arma([0.5], [], 4000, sigma=2.0, seed=5)
        fit = fit_arma(x, 1, 0)
        assert fit.sigma2 == pytest.approx(4.0, rel=0.1)

    def test_recovers_mean(self):
        x = simulate_arma([0.5], [], 3000, const=5.0, seed=6)  # mean = 10
        fit = fit_arma(x, 1, 0)
        mean = fit.const / (1 - fit.ar[0])
        assert mean == pytest.approx(x.mean(), rel=0.1)

    def test_aic_prefers_true_order(self):
        x = simulate_arma([0.8], [], 1500, seed=7)
        aic_right = fit_arma(x, 1, 0).aic
        aic_wrong = fit_arma(x, 0, 0).aic  # white noise can't explain AR(1)
        assert aic_right < aic_wrong

    def test_series_too_short_raises(self):
        with pytest.raises(ValueError):
            fit_arma(np.array([1.0, 2.0]), 2, 1)

    def test_reports_optimizer_outcome(self):
        x = simulate_arma([0.7], [], 300, seed=2)
        assert fit_arma(x, 1, 0).converged
        short = fit_arma(x, 1, 1, max_iter=3)
        assert short.nit == 3 and not short.converged

    def test_stationarity_penalty_keeps_roots_outside(self):
        # A near-random-walk series: the fitted AR root must stay ≥ ~1.
        g = np.random.default_rng(8)
        x = np.cumsum(g.normal(0, 1, 500))
        fit = fit_arma(x, 1, 0)
        assert abs(fit.ar[0]) < 1.01

    @pytest.mark.parametrize(
        "series, p, q",
        [
            ("overdifferenced", 0, 1),
            ("overdifferenced", 1, 1),
            ("random_walk", 1, 0),
            ("random_walk", 2, 0),
        ],
    )
    def test_fitted_roots_outside_radius(self, series, p, q):
        if series == "overdifferenced":  # white noise differenced: an MA root at 1
            x = np.diff(np.random.default_rng(0).normal(size=300))
        else:  # the random walk above: an AR root at 1
            x = np.cumsum(np.random.default_rng(8).normal(0, 1, 500))
        fit = fit_arma(x, p, q)
        assert _min_root_modulus(fit.ar, fit.ma) >= _ROOT_BOUND


class TestPsiWeights:
    def _fit(self, ar, ma):
        # Build a result directly: ψ-weights depend only on coefficients.
        return ARMAResult(
            p=len(ar), q=len(ma), const=0.0, ar=np.asarray(ar, float),
            ma=np.asarray(ma, float), sigma2=1.0, aic=0.0,
            resid=np.zeros(10), x=np.zeros(10), nit=0, converged=True,
        )

    def test_ar1_psi_geometric(self):
        psi = self._fit([0.5], []).psi_weights(6)
        assert np.allclose(psi, 0.5 ** np.arange(6))

    def test_ma1_psi_truncates(self):
        psi = self._fit([], [0.4]).psi_weights(5)
        assert np.allclose(psi, [1.0, 0.4, 0.0, 0.0, 0.0])

    def test_arma11_psi_closed_form(self):
        a, b = 0.6, 0.3
        psi = self._fit([a], [b]).psi_weights(6)
        expect = np.array([1.0] + [(a + b) * a ** (j - 1) for j in range(1, 6)])
        assert np.allclose(psi, expect)

    def test_psi_zero_horizon(self):
        assert len(self._fit([0.5], []).psi_weights(0)) == 0


class TestForecast:
    def test_white_noise_forecast_is_mean(self):
        g = np.random.default_rng(9)
        x = g.normal(10.0, 1.0, 500)
        fit = fit_arma(x, 0, 1)
        point, lo, hi = fit.forecast(5)
        # MA(1) forecast reverts to the unconditional mean after step 1.
        assert np.allclose(point[1:], fit.const, atol=1e-9)
        assert fit.const == pytest.approx(10.0, abs=0.2)

    def test_ar1_forecast_decays_to_mean(self):
        x = simulate_arma([0.8], [], 2000, const=2.0, seed=10)  # mean = 10
        fit = fit_arma(x, 1, 0)
        point, _, _ = fit.forecast(50)
        mean = fit.const / (1 - fit.ar[0])
        assert point[-1] == pytest.approx(mean, rel=0.05)

    def test_intervals_widen_with_horizon(self):
        x = simulate_arma([0.7], [], 1000, seed=11)
        point, lo, hi = fit_arma(x, 1, 0).forecast(10)
        widths = hi - lo
        assert np.all(np.diff(widths) >= -1e-9)

    def test_interval_contains_point(self):
        x = simulate_arma([0.5], [0.2], 1000, seed=12)
        point, lo, hi = fit_arma(x, 1, 1).forecast(7)
        assert np.all(lo <= point) and np.all(point <= hi)

    def test_higher_confidence_wider(self):
        x = simulate_arma([0.5], [], 1000, seed=13)
        fit = fit_arma(x, 1, 0)
        _, lo90, hi90 = fit.forecast(7, conf=0.9)
        _, lo99, hi99 = fit.forecast(7, conf=0.99)
        assert np.all(hi99 - lo99 > hi90 - lo90)

    def test_interval_coverage_monte_carlo(self):
        """90% intervals should cover ≈90% of one-step-ahead futures."""
        hits = 0
        runs = 120
        for s in range(runs):
            x = simulate_arma([0.6], [], 260, seed=100 + s)
            train, future = x[:250], x[250]
            fit = fit_arma(train, 1, 0)
            _, lo, hi = fit.forecast(1, conf=0.9)
            hits += int(lo[0] <= future <= hi[0])
        assert 0.80 <= hits / runs <= 0.98
