"""Derivative-free minimization — substrate for ARMA fitting.

The container has no scipy, so this module provides a standalone
Nelder–Mead simplex minimizer (with the adaptive parameters of Gao &
Han 2012) plus the inverse normal CDF (the standard library's
``statistics.NormalDist``) needed for forecast-interval z-scores. Both
are exercised directly by unit tests against known optima/quantiles.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    nit: int
    converged: bool


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    *,
    step: float = 0.25,
    max_iter: int = 2000,
    xatol: float = 1e-6,
    fatol: float = 1e-10,
) -> MinimizeResult:
    """Minimize ``f`` starting from ``x0`` with a Nelder–Mead simplex."""
    x0 = np.asarray(x0, dtype="float64").ravel()
    n = len(x0)
    if n == 0:
        return MinimizeResult(x0, float(f(x0)), 0, True)
    # Adaptive coefficients (better for moderate dimensions).
    alpha, gamma, rho, sigma = 1.0, 1.0 + 2.0 / n, 0.75 - 1.0 / (2 * n), 1.0 - 1.0 / n

    simplex = [x0]
    for i in range(n):
        v = x0.copy()
        v[i] += step if v[i] == 0 else step * abs(v[i]) + 1e-3
        simplex.append(v)
    simplex = np.asarray(simplex)
    fvals = np.array([f(v) for v in simplex], dtype="float64")

    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(fvals)
        simplex, fvals = simplex[order], fvals[order]
        if (
            np.max(np.abs(simplex[1:] - simplex[0])) <= xatol
            and np.max(np.abs(fvals[1:] - fvals[0])) <= fatol
        ):
            return MinimizeResult(simplex[0], float(fvals[0]), it, True)
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = f(xr)
        if fr < fvals[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + rho * (simplex[-1] - centroid)
            fc = f(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:  # shrink toward the best vertex
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    fvals[i] = f(simplex[i])
    order = np.argsort(fvals)
    return MinimizeResult(simplex[order][0], float(fvals[order][0]), it, False)


def norm_ppf(p: float) -> float:
    """Inverse standard normal CDF; ``ValueError`` unless ``0 < p < 1``."""
    if not (0.0 < p < 1.0):  # also rejects NaN, which inv_cdf would return
        raise ValueError(f"p must be in (0,1), got {p}")
    return NormalDist().inv_cdf(p)
