"""ARMA(p,q) forecasting — eq. (3) of the paper.

Fitting is by conditional sum of squares (CSS): residuals are computed
recursively with pre-sample residuals set to 0, and the squared-residual
sum is minimized over (intercept, α₁..α_p, β₁..β_q) with Nelder–Mead.
CSS is the classic stand-in for full MLE (statsmodels' default start),
adequate for t₀ ≈ 150 training points. Stationarity/invertibility hold
by construction: the optimizer searches over unconstrained values that
map, through partial autocorrelations (Jones 1980; Monahan 1984), to
AR/MA polynomials whose roots all lie outside radius 1.05.

Forecast intervals come from the MA(∞) ψ-weights:
``Var[M_{T+h} - M̂_{T+h|T}] = σ² Σ_{j<h} ψ_j²`` and a normal quantile —
exactly the textbook construction the paper relies on in Section 3.1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.forecast.optim import MinimizeResult, nelder_mead, norm_ppf


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
    nit: int             # Nelder–Mead iterations of the fit
    converged: bool      # whether Nelder–Mead met its tolerances

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


def fit_arma(x: np.ndarray, p: int, q: int, *, max_iter: int = 2000) -> ARMAResult:
    """Fit ARMA(p,q) to ``x`` by CSS + Nelder–Mead."""
    x = np.asarray(x, dtype="float64")
    n = len(x)
    if n <= p + q + 1:
        raise ValueError(f"series too short ({n}) for ARMA({p},{q})")

    mean = float(x.mean())

    def unpack(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        return float(theta[0]), _constrain(theta[1 : 1 + p]), -_constrain(theta[1 + p :])

    def objective(theta: np.ndarray) -> float:
        e = css_residuals(x, *unpack(theta))
        return float(np.sum(e * e))

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

    res: MinimizeResult = nelder_mead(objective, theta0, max_iter=max_iter)
    c, ar, ma = unpack(res.x)
    e = css_residuals(x, c, ar, ma)
    neff = len(e)
    sigma2 = float(np.sum(e * e)) / max(1, neff)
    k = 1 + p + q
    aic = neff * np.log(max(sigma2, 1e-300)) + 2 * (k + 1)
    return ARMAResult(p, q, c, ar, ma, sigma2, float(aic), e, x, res.nit, res.converged)
