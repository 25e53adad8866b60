"""Unit tests for the minimizers and the normal quantile."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forecast.optim import levenberg_marquardt, nelder_mead, norm_ppf


def _rosenbrock_residuals(v):
    """Rosenbrock's function as the sum of squares of two residuals."""
    return np.array([1.0 - v[0], 10.0 * (v[1] - v[0] ** 2)])


class TestLevenbergMarquardt:
    def test_exact_on_linear_least_squares(self):
        g = np.random.default_rng(0)
        a, b = g.normal(size=(50, 4)), g.normal(size=50)
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        r = levenberg_marquardt(lambda v: a @ v - b, np.zeros(4))
        assert r.converged
        assert np.allclose(r.x, want, rtol=0, atol=1e-6)
        assert r.fun == pytest.approx(float(np.sum((a @ want - b) ** 2)), rel=1e-10)

    def test_rosenbrock(self):
        r = levenberg_marquardt(_rosenbrock_residuals, np.array([-1.2, 1.0]))
        assert r.converged and r.nit <= 200
        assert np.allclose(r.x, [1.0, 1.0], atol=1e-6)
        assert r.fun < 1e-12

    def test_reports_function_value(self):
        r = levenberg_marquardt(lambda v: np.array([v[0] - 1.0, 2.0]), np.array([5.0]))
        assert r.x[0] == pytest.approx(1.0) and r.fun == pytest.approx(4.0)

    @pytest.mark.parametrize("max_iter", [1, 3, 5])
    def test_max_iter_respected(self, max_iter):
        r = levenberg_marquardt(_rosenbrock_residuals, np.array([-1.2, 1.0]), max_iter=max_iter)
        assert r.nit <= max_iter and not r.converged

    def test_zero_dim(self):
        r = levenberg_marquardt(lambda v: np.array([3.0, 4.0]), np.array([]))
        assert r.fun == 25.0 and r.nit == 0 and r.converged

    def test_flat_coordinate_stays(self):
        """A coordinate the residuals ignore (a zero Jacobian column) does not move."""
        r = levenberg_marquardt(lambda v: np.array([v[0] - 2.0, 0.5 * (v[0] - 2.0)]), np.array([0.0, 7.0]))
        assert r.converged and r.x[0] == pytest.approx(2.0) and r.x[1] == 7.0

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_translated_quadratic_property(self, a, b):
        r = levenberg_marquardt(lambda v: np.array([v[0] - a, 3.0 * (v[1] - b)]), np.zeros(2))
        assert r.converged and np.allclose(r.x, [a, b], atol=1e-8)


class TestNelderMead:
    def test_quadratic_1d(self):
        r = nelder_mead(lambda v: (v[0] - 2.5) ** 2, np.array([0.0]))
        assert r.converged
        assert abs(r.x[0] - 2.5) < 1e-3

    def test_quadratic_2d(self):
        r = nelder_mead(lambda v: (v[0] - 3) ** 2 + (v[1] + 1) ** 2, np.array([0.0, 0.0]))
        assert np.allclose(r.x, [3, -1], atol=1e-3)

    def test_anisotropic_quadratic(self):
        r = nelder_mead(
            lambda v: 100 * (v[0] - 1) ** 2 + 0.01 * (v[1] - 4) ** 2,
            np.array([0.0, 0.0]),
            max_iter=5000,
        )
        assert abs(r.x[0] - 1) < 1e-2
        assert abs(r.x[1] - 4) < 1e-1

    def test_rosenbrock_2d(self):
        r = nelder_mead(
            lambda v: (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2,
            np.array([-1.2, 1.0]),
            max_iter=5000,
        )
        assert np.allclose(r.x, [1, 1], atol=1e-2)

    def test_quartic_4d(self):
        r = nelder_mead(lambda v: float(np.sum((v - 0.5) ** 4)), np.zeros(4), max_iter=5000)
        assert np.allclose(r.x, 0.5, atol=0.05)

    def test_zero_dim(self):
        r = nelder_mead(lambda v: 7.0, np.array([]))
        assert r.fun == 7.0 and r.converged

    def test_abs_value_nonsmooth(self):
        r = nelder_mead(lambda v: abs(v[0] - 1.5) + abs(v[1]), np.array([0.0, 3.0]), max_iter=4000)
        assert abs(r.x[0] - 1.5) < 1e-2 and abs(r.x[1]) < 1e-2

    def test_reports_function_value(self):
        r = nelder_mead(lambda v: (v[0] - 1) ** 2 + 5.0, np.array([0.0]))
        assert abs(r.fun - 5.0) < 1e-6

    def test_max_iter_respected(self):
        r = nelder_mead(
            lambda v: (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2,
            np.array([-1.2, 1.0]),
            max_iter=5,
        )
        assert r.nit <= 5 and not r.converged

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_translated_quadratic_property(self, a, b):
        r = nelder_mead(
            lambda v: (v[0] - a) ** 2 + (v[1] - b) ** 2, np.array([0.0, 0.0]), max_iter=3000
        )
        assert np.allclose(r.x, [a, b], atol=1e-2)


class TestNormPpf:
    @pytest.mark.parametrize(
        "p,z",
        [
            (0.5, 0.0),
            (0.8413447460685429, 1.0),
            (0.95, 1.6448536269514722),
            (0.975, 1.959963984540054),
            (0.99, 2.3263478740408408),
            (0.9986501019683699, 3.0),
        ],
    )
    def test_known_quantiles(self, p, z):
        assert abs(norm_ppf(p) - z) < 1e-6

    def test_symmetry(self):
        for p in (0.6, 0.75, 0.9, 0.999):
            assert abs(norm_ppf(p) + norm_ppf(1 - p)) < 1e-9

    def test_tails(self):
        assert norm_ppf(1e-10) < -6
        assert norm_ppf(1 - 1e-10) > 6

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            norm_ppf(p)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, p):
        assert norm_ppf(p) <= norm_ppf(min(p + 1e-4, 0.9995))
