"""Minimizers — substrate for ARMA fitting.

The container has no scipy, so this module provides a standalone
Levenberg–Marquardt least-squares solver (Marquardt 1963) with a
forward-difference Jacobian, which fits every ARMA candidate, and a
Nelder–Mead simplex minimizer (with the adaptive parameters of Gao & Han
2012), the derivative-free reference the tests compare ARMA fits against.
It also holds the inverse normal CDF (the standard library's
``statistics.NormalDist``) needed for forecast-interval z-scores. All
three are exercised directly by unit tests against known optima/quantiles.
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


def levenberg_marquardt(
    r: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    max_iter: int = 200,
) -> MinimizeResult:
    """Minimize ``Σ r(x)²`` from ``x0`` by Levenberg–Marquardt.

    Each iteration takes one forward-difference Jacobian ``J`` of the
    residual vector ``r`` (one evaluation per coordinate) and tries damped
    Gauss–Newton steps ``(JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr`` until the sum of
    squares falls. λ follows Nielsen's (1999) rule: a rejected step raises
    it by a doubling factor, and an accepted one scales it by
    ``max(1/3, 1 − (2ρ − 1)³)``, where ρ is the actual drop over the drop
    the linear model predicted. It converges when a step lowers the sum by
    at most ``1e-10`` of its value or moves ``x`` by at most ``1e-8``
    relative to its norm, or when no step lowers it at all (``x`` is
    stationary to rounding). ``nit`` counts Jacobians and ``fun`` is the
    sum of squares at ``x``.
    """
    x = np.asarray(x0, dtype="float64").ravel().copy()
    # Residuals are copied: BLAS dot products may round differently on an
    # array that is a view at another memory alignment, and the fit must
    # not depend on how ``r`` allocates its result.
    res = np.array(r(x), dtype="float64")
    f = float(res @ res)
    n = len(x)
    if n == 0:
        return MinimizeResult(x, f, 0, True)
    lam, h_rel = 1e-3, np.sqrt(np.finfo("float64").eps)
    for it in range(1, max_iter + 1):
        jac = np.empty((len(res), n))
        for j in range(n):
            xj = x.copy()
            h = h_rel * max(abs(x[j]), 1.0)
            xj[j] += h
            jac[:, j] = (np.asarray(r(xj), dtype="float64") - res) / h
        g, a = jac.T @ res, jac.T @ jac
        if not g.any():  # a zero residual, or a flat objective
            return MinimizeResult(x, f, it, True)
        # A flat coordinate (zero column) gets a tiny damping floor, so the
        # system stays solvable and that coordinate does not move.
        scale = np.maximum(np.diag(a), 1e-12 * max(float(np.max(np.diag(a))), 1e-300))
        nu = 2.0
        while True:
            step = np.linalg.solve(a + lam * np.diag(scale), -g)
            x_new = x + step
            res_new = np.array(r(x_new), dtype="float64")
            f_new = float(res_new @ res_new)
            if f_new < f:  # False for NaN
                break
            lam, nu = lam * nu, 2.0 * nu
            if lam > 1e16:
                return MinimizeResult(x, f, it, True)
        predicted = float(step @ (a @ step) + 2.0 * lam * (step * scale) @ step)
        rho = (f - f_new) / predicted if predicted > 0 else 0.0
        small_drop = f - f_new <= 1e-10 * f
        small_step = np.linalg.norm(step) <= 1e-8 * (np.linalg.norm(x) + 1e-8)
        x, res, f = x_new, res_new, f_new
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-12)
        if small_drop or small_step:
            return MinimizeResult(x, f, it, True)
    return MinimizeResult(x, f, max_iter, False)


def norm_ppf(p: float) -> float:
    """Inverse standard normal CDF; ``ValueError`` unless ``0 < p < 1``."""
    if not (0.0 < p < 1.0):  # also rejects NaN, which inv_cdf would return
        raise ValueError(f"p must be in (0,1), got {p}")
    return NormalDist().inv_cdf(p)
