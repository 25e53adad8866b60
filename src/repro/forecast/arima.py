"""ARIMA(p,d,q) with automatic order selection — the paper's default
forecasting model (their deployment uses pmdarima / X-13ARIMA-SEATS; we
reproduce the same model class and the same AIC selection criterion).

``fit_arima`` differences the series ``d`` times, standardizes, fits an
ARMA(p,q) by CSS with Levenberg–Marquardt from Hannan–Rissanen starts
(see :mod:`repro.forecast.arma`), and integrates the forecasts (and
ψ-weights, via d-fold cumulative sums) back to the original scale.
``auto_arima`` picks ``d`` by the standard variance-reduction heuristic
and (p,q) by grid-search on AIC; ``max_iter`` caps each candidate's
solver iterations. Its ``map`` fits the candidates: the builtin in turn,
``FlashP``'s worker pool (initializer ``worker_ready``) concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.forecast.arma import ARMAResult, fit_arma
from repro.forecast.optim import norm_ppf


def difference(x: np.ndarray, d: int) -> np.ndarray:
    """d-th order difference ∇^d x (length shrinks by d)."""
    return np.diff(np.asarray(x, dtype="float64"), n=d)


@dataclass
class ARIMAResult:
    """Fitted ARIMA(p,d,q); holds the inner standardized ARMA fit."""

    d: int
    arma: ARMAResult
    x: np.ndarray          # original (undifferenced) series
    mu: float              # mean of the differenced series (standardization)
    sd: float              # std of the differenced series
    # auto_arima: one "ARIMA(p,d,q): <error>" line per candidate that failed
    failures: list[str] = field(default_factory=list)
    candidates: list[tuple] = field(default_factory=list)  # ((p,d,q), AIC, nit, converged)

    @property
    def order(self) -> tuple[int, int, int]:
        return (self.arma.p, self.d, self.arma.q)

    @property
    def aic(self) -> float:
        return self.arma.aic

    @property
    def sigma2(self) -> float:
        """Innovation variance in original units."""
        return self.arma.sigma2 * self.sd**2

    def forecast(self, h: int, *, conf: float = 0.9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point, lower, upper) forecasts in original units."""
        point_z, _, _ = self.arma.forecast(h, conf=conf)
        diffs = point_z * self.sd + self.mu  # forecasts of ∇^d x

        # Integrate d times: each pass turns forecasts of ∇^k x into
        # forecasts of ∇^{k-1} x using the last observed value at level k-1.
        levels = [self.x]
        for k in range(1, self.d):
            levels.append(difference(self.x, k))
        point = diffs
        for k in range(self.d, 0, -1):
            last = levels[k - 1][-1]
            point = last + np.cumsum(point)
        # ψ-weights of the integrated process = d-fold cumsum of ARMA ψ.
        psi = self.arma.psi_weights(h)
        for _ in range(self.d):
            psi = np.cumsum(psi)
        se = np.sqrt(self.sigma2 * np.cumsum(psi**2))
        z = norm_ppf(0.5 + conf / 2)
        return point, point - z * se, point + z * se


def fit_arima(x: np.ndarray, p: int, d: int, q: int, *, max_iter: int = 2000) -> ARIMAResult:
    """Fit ARIMA(p,d,q) by CSS on the standardized d-th difference."""
    x = np.asarray(x, dtype="float64")
    z = difference(x, d)
    if len(z) <= p + q + 2:
        raise ValueError(f"series too short for ARIMA({p},{d},{q})")
    mu, sd = float(z.mean()), float(z.std())
    if sd <= 0:
        sd = 1.0
    arma = fit_arma((z - mu) / sd, p, q, max_iter=max_iter)
    return ARIMAResult(d, arma, x, mu, sd)


def select_d(x: np.ndarray, *, max_d: int = 2) -> int:
    """Smallest d whose next difference does not reduce the std.

    The classic over-differencing guard: difference while it shrinks the
    standard deviation, stop as soon as it grows (or max_d is reached).
    """
    x = np.asarray(x, dtype="float64")
    d = 0
    cur = float(x.std())
    while d < max_d:
        nxt = float(np.diff(x).std())
        if nxt >= cur * 0.95 or len(x) < 10:
            break
        x, cur, d = np.diff(x), nxt, d + 1
    return d


def _fit_candidate(args: tuple) -> ARIMAResult | str:
    """``fit_arima`` on ``args = (x, p, d, q, max_iter)``, or its failure line."""
    x, p, d, q, max_iter = args
    try:
        return fit_arima(x, p, d, q, max_iter=max_iter)
    except ValueError as exc:
        return f"ARIMA({p},{d},{q}): {exc}"


def worker_ready(barrier) -> None:
    """Initializer of a pool worker: unpickling it has imported the fitter."""
    barrier.wait()


def auto_arima(
    x: np.ndarray,
    *,
    max_p: int = 3,
    max_q: int = 3,
    max_d: int = 2,
    max_iter: int = 1000,
    map=map,
) -> ARIMAResult:
    """Grid-search (p,q) by AIC at the heuristically chosen d.

    Stand-in for pmdarima's stepwise search: same model family, same
    selection criterion, exhaustive instead of stepwise. Candidates that
    cannot be fitted are listed in the result's ``failures``, the others
    in its ``candidates``. ``map`` gets them longest first (an MA part,
    then descending p + q), so a pool does not start a long fit last; they
    are compared in grid order, so ties resolve alike however they ran.
    """
    x = np.asarray(x, dtype="float64")
    d = select_d(x, max_d=max_d)
    # (p, d, q) = (0, 0, 0), the pure-constant model, never forecasts trends.
    grid = [(p, q) for p in range(max_p + 1) for q in range(max_q + 1) if p or q or d]
    longest = sorted(grid, key=lambda pq: (pq[1] == 0, -sum(pq)))
    done = dict(zip(longest, map(_fit_candidate, [(x, p, d, q, max_iter) for p, q in longest])))
    failures = [done[pq] for pq in grid if isinstance(done[pq], str)]
    fits = [done[pq] for pq in grid if not isinstance(done[pq], str)]
    if not fits:
        raise ValueError("auto_arima: no candidate model could be fitted: " + "; ".join(failures))
    best = min(fits, key=lambda f: f.aic)  # the first of equal AICs, as a strict < scan
    best.failures = failures
    best.candidates = [(f.order, f.aic, f.arma.nit, f.arma.converged) for f in fits]
    return best
