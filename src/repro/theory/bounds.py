"""The paper's analytical results, as executable checks.

Everything here is driver-side numpy over measure/weight vectors — the
theory concerns fixed finite populations, and tests verify each bound
against Monte-Carlo simulation of the actual samplers:

* ``consistency``            — Definition 2: (θ̲, θ̄) and θ = θ̄/θ̲.
* ``gsw_variance``           — eq. (12): Var[M̂] = Σ Δ m_i²/w_i.
* ``expected_sample_size``   — eq. (13): E|S_Δ| = Σ w_i/(Δ+w_i).
* ``rstd_bound``             — Theorem 3: RSTD ≤ sqrt(θ / E|S_Δ|).
* ``trend_deviation``        — eq. (8): ρ_{p,q} for a pair of measures.
* ``range_deviation``        — eq. (10): δ for a group of measures.
* ``geometric_bound``        — Corollary 5 (per-measure and worst-case).
* ``arithmetic_bound``       — Corollary 6.
* ``l1_consistency_bound``   — Proposition 7: ‖m′ − w′‖₁ ≤ θ − 1.
* ``arma11_variance``        — Proposition 1: Var[M̂_t] = a·σ_u² + σ_ε².
"""
from __future__ import annotations

import numpy as np


def _pos(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype="float64")
    if (v <= 0).any():
        raise ValueError(f"{name} must be strictly positive")
    return v


def consistency(m: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """(θ̲, θ̄, θ) of weights w w.r.t. measure m (Definition 2)."""
    m, w = _pos(m, "m"), _pos(w, "w")
    r = m / w
    lo, hi = float(r.min()), float(r.max())
    return lo, hi, hi / lo


def gsw_variance(m: np.ndarray, w: np.ndarray, delta: float) -> float:
    """Exact Var[M̂] of the GSW estimator over the whole population."""
    m, w = _pos(m, "m"), _pos(w, "w")
    return float(np.sum(delta * m * m / w))


def expected_sample_size(w: np.ndarray, delta: float) -> float:
    """E|S_Δ| = Σ w_i/(Δ + w_i)."""
    w = _pos(w, "w")
    return float(np.sum(w / (delta + w)))


def rstd_exact(m: np.ndarray, w: np.ndarray, delta: float) -> float:
    """Exact RSTD sqrt(Var[M̂])/M for the full population subset."""
    m = _pos(m, "m")
    return float(np.sqrt(gsw_variance(m, w, delta)) / m.sum())


def rstd_bound(theta: float, expected_size: float) -> float:
    """Theorem 3 upper bound sqrt(θ / E|S_Δ|)."""
    if expected_size <= 0:
        return float("inf")
    return float(np.sqrt(theta / expected_size))


def trend_deviation(mp: np.ndarray, mq: np.ndarray) -> float:
    """ρ_{p,q} = max_i(mp/mq) / min_i(mp/mq) (eq. 8)."""
    mp, mq = _pos(mp, "mp"), _pos(mq, "mq")
    r = mp / mq
    return float(r.max() / r.min())


def range_deviation(measures: list[np.ndarray]) -> float:
    """δ = max_i (max_j m_i^(j) / min_j m_i^(j)) (eq. 10)."""
    M = np.vstack([_pos(m, "measure") for m in measures])
    return float((M.max(axis=0) / M.min(axis=0)).max())


def geometric_bound(
    measures: list[np.ndarray], p: int, expected_size: float
) -> float:
    """Corollary 5 bound for measure index ``p`` under w = geometric mean."""
    k = len(measures)
    prod = 1.0
    for j in range(k):
        if j != p:
            prod *= trend_deviation(measures[p], measures[j]) ** (1.0 / k)
    return float(np.sqrt(prod / expected_size))


def arithmetic_bound(measures: list[np.ndarray], expected_size: float) -> float:
    """Corollary 6 bound sqrt(δ² / E|S_Δ|) under w = arithmetic mean."""
    d = range_deviation(measures)
    return float(np.sqrt(d * d / expected_size))


def l1_consistency_bound(m: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Proposition 7: returns (‖m′ − w′‖₁, θ − 1); first ≤ second.

    Both sides are computed from the same ratios ``r = m/w``: with
    ``r̄ = Σm/Σw``, ``m′_i − w′_i = w′_i·(r_i − r̄)/r̄`` and
    ``θ − 1 = (θ̄ − θ̲)/θ̲``. Since ``r̄`` lies in ``[θ̲, θ̄]``, each term is
    bounded by the cap term for term, so the inequality survives rounding,
    and both sides are exactly 0 when every ``r_i`` is the same float
    (subtracting ``m/Σm − w/Σw`` directly leaves ~1e-16 against a cap of 0).
    """
    m, w = _pos(m, "m"), _pos(w, "w")
    r = m / w
    lo, hi = float(r.min()), float(r.max())
    rbar = float(np.clip(m.sum() / w.sum(), lo, hi))
    l1 = float((w / w.sum()) @ np.abs(r - rbar)) / rbar
    return l1, (hi - lo) / lo


def arma11_variance(
    alpha1: float, beta1: float, sigma_u2: float, sigma_eps2: float
) -> float:
    """Proposition 1: Var[M̂_t] = a·σ_u² + σ_ε², a = (1+2αβ+β²)/(1−α²)."""
    if not abs(alpha1) < 1:
        raise ValueError("ARMA(1,1) requires |alpha1| < 1 for stationarity")
    a = (1 + 2 * alpha1 * beta1 + beta1 * beta1) / (1 - alpha1 * alpha1)
    return float(a * sigma_u2 + sigma_eps2)
