"""ARMA(p,q) forecasting — eq. (3) of the paper.

Fitting is by conditional sum of squares (CSS): residuals are computed
recursively with pre-sample residuals set to 0, and their sum of squares
is minimized over (intercept, α₁..α_p, β₁..β_q) by Levenberg–Marquardt
(Marquardt 1963), since CSS is a least-squares problem in the residual
vector. CSS is the classic stand-in for full MLE (statsmodels' default
start), adequate for t₀ ≈ 150 training points. Stationarity/invertibility
hold by construction: the solver searches over unconstrained values that
map, through partial autocorrelations (Jones 1980; Monahan 1984), to
AR/MA polynomials whose roots all lie outside radius 1.05.

Each fit starts from white noise around the mean with the lag-1
autocorrelation as AR₁, and from the Hannan & Rissanen (1982)
least-squares estimates (two, from two long autoregressions, when there
is an MA part), mapped into the unconstrained values by the
Durbin–Levinson step-down. Every start runs a few iterations; the one with
the lower CSS runs on to convergence.

Forecast intervals come from the MA(∞) ψ-weights:
``Var[M_{T+h} - M̂_{T+h|T}] = σ² Σ_{j<h} ψ_j²`` and a normal quantile —
exactly the textbook construction the paper relies on in Section 3.1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.forecast.optim import MinimizeResult, levenberg_marquardt, norm_ppf

# Not used here: perfbench's traced run wraps ``arma.nelder_mead`` when it
# installs its spans, so the name must resolve in this module.
from repro.forecast.optim import nelder_mead  # noqa: F401


def css_residuals(x: np.ndarray, c: float, ar: np.ndarray, ma: np.ndarray) -> np.ndarray:
    """Conditional residuals e_t of an ARMA model on series ``x``.

    ``e_t = x_t - c - Σ ar_i x_{t-i} - Σ ma_j e_{t-j}``; the first
    ``p`` points (and pre-sample e's) are conditioned on as zeros.
    """
    p, q = len(ar), len(ma)
    n = len(x)
    # AR part is a fixed linear filter of x — vectorize it; only the MA
    # feedback through past residuals is inherently sequential.
    arpart = x.copy() - c
    for i in range(p):
        arpart[p:] -= ar[i] * x[p - 1 - i : n - 1 - i]
    if q == 0:
        return arpart[p:]
    # The MA recursion runs on Python floats: the same IEEE operations, in
    # the same order, as on numpy scalars, at a fraction of the cost. The
    # pre-sample e's are zeros, so their terms change no residual (at most
    # the sign of a zero). The q = 1, 2 recurrences (every order of the
    # benchmark grid) are unrolled.
    a = arpart[p:].tolist()
    if q == 1:
        (b1,) = ma.tolist()
        e1, e = 0.0, []
        for at in a:
            e1 = at - b1 * e1
            e.append(e1)
        return np.array(e)
    if q == 2:
        b1, b2 = ma.tolist()
        e1 = e2 = 0.0
        e = []
        for at in a:
            e1, e2 = (at - b1 * e1) - b2 * e2, e1
            e.append(e1)
        return np.array(e)
    b = ma.tolist()
    e = [0.0] * q
    for at in a:
        for j in range(q):
            at -= b[j] * e[-1 - j]
        e.append(at)
    return np.array(e[q:])


# Every AR/MA root lies outside this radius. Partial autocorrelations are
# kept a little inside ±1: at ±1 the polynomial has multiple roots on the
# radius, which rounding of its coefficients can move inside it.
_ROOT_R = 1.05
_PACF_MAX = 1.0 - 1e-5


def _constrain(u: np.ndarray) -> np.ndarray:
    """Coefficients c whose polynomial ``1 - Σ c_j z^j`` has every root outside ``_ROOT_R``.

    ``tanh(u)`` are partial autocorrelations in (−1, 1); the Durbin–Levinson
    step-up turns them into a polynomial with roots outside the unit circle,
    and dividing ``c_j`` by ``_ROOT_R**j`` scales those roots by ``_ROOT_R``.
    """
    c: list[float] = []
    for v in u.tolist():
        r = min(max(math.tanh(v), -_PACF_MAX), _PACF_MAX)
        c = [cj - r * ck for cj, ck in zip(c, reversed(c))] + [r]
    return np.array([cj / _ROOT_R**j for j, cj in enumerate(c, 1)])


# A start's partial autocorrelations are clipped inside this bound, so a
# start outside the root radius still maps to finite free values.
_START_PACF_MAX = 0.99


def _unconstrain(c: np.ndarray) -> np.ndarray:
    """Free values ``u`` with ``_constrain(u) ≈ c``: the Durbin–Levinson step-down.

    Undoes the radius scaling, then peels the partial autocorrelations off
    the polynomial from the highest lag down. Each partial is clipped
    inside ``±_START_PACF_MAX``, so a polynomial with a root inside the
    radius maps to a nearby one outside it instead of failing.
    """
    c = [cj * _ROOT_R**j for j, cj in enumerate(np.asarray(c, dtype="float64").tolist(), 1)]
    u: list[float] = []
    while c:
        r = min(max(c[-1], -_START_PACF_MAX), _START_PACF_MAX)
        c = [(cj + r * ck) / (1.0 - r * r) for cj, ck in zip(c[:-1], reversed(c[:-1]))]
        u.append(math.atanh(r))
    return np.array(u[::-1])


def _yule_walker_by_aic(x: np.ndarray, top: int) -> list[float]:
    """Yule–Walker AR coefficients of ``x`` at the order in ``1..top`` that minimizes AIC.

    The Durbin–Levinson recursion gives every order's coefficients and
    innovation variance from the sample autocovariances in one pass.
    """
    n = len(x)
    xc = x - x.mean()
    acov = [float(xc[k:] @ xc[: n - k]) / n for k in range(top + 1)]
    phi: list[float] = []
    v, best, best_phi = acov[0], math.inf, [0.0]
    for k in range(1, top + 1):
        if v <= 0:  # a constant series, or a perfect fit at k - 1
            break
        r = (acov[k] - sum(a * g for a, g in zip(phi, reversed(acov[1:k])))) / v
        phi = [a - r * b for a, b in zip(phi, reversed(phi))] + [r]
        v *= 1.0 - r * r
        aic = n * math.log(max(v, 1e-300)) + 2 * k
        if aic < best:
            best, best_phi = aic, phi
    return best_phi


def hannan_rissanen(
    x: np.ndarray, p: int, q: int, m: int | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Hannan & Rissanen (1982) estimates ``(c, ar, ma)`` of ARMA(p,q) on ``x``.

    The residuals of a long autoregression stand in for the unobserved
    innovations; OLS of ``x_t`` on a constant, ``x_{t-1..t-p}`` and those
    residuals at lags ``1..q`` then gives the coefficients. The long AR is
    the OLS fit of order ``m`` or, when ``m`` is None, the Yule–Walker fit
    at the order up to 10·log₁₀(n) that minimizes AIC, as in Hannan &
    Rissanen. Its order is cut so that both regressions have at least as
    many rows as coefficients. With ``q = 0`` the second regression is the
    CSS fit itself. The estimates need not be stationary or invertible.
    """
    x = np.asarray(x, dtype="float64")
    n = len(x)

    def ols(start: int, *series_lags: tuple[np.ndarray, int]) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and residuals of ``x_t`` (``t ≥ start``) on a constant and lagged series."""
        cols = [np.ones(n - start)]
        cols += [v[start - i : n - i] for v, k in series_lags for i in range(1, k + 1)]
        design = np.column_stack(cols)
        beta = np.linalg.lstsq(design, x[start:], rcond=None)[0]
        return beta, x[start:] - design @ beta

    if q == 0:
        beta, _ = ols(p, (x, p))
        return float(beta[0]), beta[1:], np.empty(0)
    top = max(1, min((n - 1) // 2, n - 1 - p - 2 * q))
    e = np.zeros(n)
    if m is None:
        phi = _yule_walker_by_aic(x, min(int(10 * math.log10(n)), top))
        m = len(phi)
        xc = x - x.mean()
        e[m:] = xc[m:] - sum(a * xc[m - i : n - i] for i, a in enumerate(phi, 1))
    else:
        m = min(m, top)
        _, e[m:] = ols(m, (x, m))
    beta, _ = ols(m + q, (x, p), (e, q))
    return float(beta[0]), beta[1 : 1 + p], beta[1 + p :]


@dataclass
class ARMAResult:
    """A fitted ARMA(p,q) model on a (possibly standardized) series."""

    p: int
    q: int
    const: float
    ar: np.ndarray
    ma: np.ndarray
    sigma2: float
    aic: float
    resid: np.ndarray
    x: np.ndarray = field(repr=False)
    nit: int             # Levenberg–Marquardt iterations (Jacobians) of the kept start
    converged: bool      # whether Levenberg–Marquardt met its tolerances

    def psi_weights(self, h: int) -> np.ndarray:
        """MA(∞) weights ψ_0..ψ_{h-1} of the fitted process."""
        psi = np.zeros(h)
        if h == 0:
            return psi
        psi[0] = 1.0
        for j in range(1, h):
            acc = self.ma[j - 1] if j - 1 < self.q else 0.0
            for i in range(1, min(j, self.p) + 1):
                acc += self.ar[i - 1] * psi[j - i]
            psi[j] = acc
        return psi

    def forecast(self, h: int, *, conf: float = 0.9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forecast ``h`` steps ahead: (point, lower, upper) arrays.

        Iterative: future shocks are set to their mean 0; the last ``q``
        fitted residuals feed the MA part of the first forecasts.
        """
        x, e = list(self.x), np.zeros(len(self.x))
        e[self.p:] = self.resid
        e = list(e)
        out = np.empty(h)
        for step in range(h):
            t = len(x)
            acc = self.const
            for i in range(self.p):
                acc += self.ar[i] * x[t - 1 - i]
            for j in range(self.q):
                idx = t - 1 - j
                if idx >= 0:
                    acc += self.ma[j] * e[idx]
            x.append(acc)
            e.append(0.0)
            out[step] = acc
        psi = self.psi_weights(h)
        se = np.sqrt(self.sigma2 * np.cumsum(psi**2))
        z = norm_ppf(0.5 + conf / 2)
        return out, out - z * se, out + z * se


# Iterations each start runs before the one with the lower CSS goes on.
_RACE_ITERS = 5


def fit_arma(x: np.ndarray, p: int, q: int, *, max_iter: int = 2000) -> ARMAResult:
    """Fit ARMA(p,q) to ``x`` by CSS + Levenberg–Marquardt from up to three starts."""
    x = np.asarray(x, dtype="float64")
    n = len(x)
    if n <= p + q + 1:
        raise ValueError(f"series too short ({n}) for ARMA({p},{q})")

    mean = float(x.mean())

    def unpack(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        return float(theta[0]), _constrain(theta[1 : 1 + p]), -_constrain(theta[1 + p :])

    def residuals(theta: np.ndarray) -> np.ndarray:
        return css_residuals(x, *unpack(theta))

    # Start from white noise around the mean; seed AR1 with lag-1 autocorr.
    theta0 = np.zeros(1 + p + q)
    theta0[0] = mean
    if p >= 1 and n > 2:
        xc = x - mean
        denom = float(np.dot(xc, xc))
        if denom > 0:
            r1 = float(np.dot(xc[1:], xc[:-1])) / denom
            ar1 = float(np.clip(r1, -0.9, 0.9))
            theta0[0] = mean * (1.0 - ar1)
            theta0[1] = np.arctanh(ar1 * _ROOT_R)

    # Hannan–Rissanen starts from two long ARs: Yule–Walker at the
    # AIC-chosen order, and OLS at a fixed order that grows with n
    # (statsmodels' default). The CSS surface has several basins, and each
    # long AR leads into a different one on some series. Without an MA part
    # the long AR is not used.
    starts = [theta0]
    fixed_order = max(2 * max(p, q), int(12 * (n / 100) ** 0.25))
    for m in (None, fixed_order) if q else (None,):
        hr_c, hr_ar, hr_ma = hannan_rissanen(x, p, q, m)
        starts.append(np.concatenate(([hr_c], _unconstrain(hr_ar), _unconstrain(-hr_ma))))

    race = min(_RACE_ITERS, max_iter)
    res: MinimizeResult = min(
        (levenberg_marquardt(residuals, t, max_iter=race) for t in starts),
        key=lambda r: r.fun,
    )
    if not res.converged and res.nit < max_iter:
        more = levenberg_marquardt(residuals, res.x, max_iter=max_iter - res.nit)
        res = MinimizeResult(more.x, more.fun, res.nit + more.nit, more.converged)
    c, ar, ma = unpack(res.x)
    e = css_residuals(x, c, ar, ma)
    neff = len(e)
    sigma2 = float(np.sum(e * e)) / max(1, neff)
    k = 1 + p + q
    aic = neff * np.log(max(sigma2, 1e-300)) + 2 * (k + 1)
    return ARMAResult(p, q, c, ar, ma, sigma2, float(aic), e, x, res.nit, res.converged)
