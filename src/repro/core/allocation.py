"""Optimal sample allocation and MSE formulas (§4.2, Props. 1–2).

Proposition 1: with known p_k (predicate positive rate) and σ_k
(statistic std among positives), the MSE-minimizing allocation of a
budget N across strata is T_k* ∝ √p_k · σ_k.

Proposition 2: under T*, the MSE is (Σ_k √p_k σ_k)² / (N · p_all²).

These formulas drive Stage 2 of ABAE (with plug-in estimates), the
group-by objectives (Eqs. 10–11, through :func:`err_coefs`), and proxy
selection (§3.4).
"""
from __future__ import annotations

import numpy as np


def optimal_allocation(p: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """T_k* = √p_k σ_k / Σ_i √p_i σ_i  (Proposition 1, Eq. 2).

    Falls back to uniform allocation when every √p_k σ_k is zero (e.g.
    a pilot that found no positives anywhere, or all-constant values) —
    any allocation is then equally (un)informative.
    """
    p = np.asarray(p, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if p.shape != sigma.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {sigma.shape}")
    raw = np.sqrt(np.clip(p, 0.0, None)) * np.clip(sigma, 0.0, None)
    total = raw.sum()
    if total <= 0.0:
        return np.full(p.size, 1.0 / p.size)
    return raw / total


def err_coefs(p: np.ndarray, sigma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """N × MSE of the combined estimator under allocation ``t`` with
    deterministic draws: Σ_k w_k² σ_k² / (p_k t_k)  (Eq. 3), for every
    column g at once.

    ``p`` and ``sigma`` have shape (..., K, G) and ``t`` (..., K); the
    result has shape (..., G). Strata with w_k σ_k = 0 contribute 0;
    a stratum with t_k = 0 but w_k σ_k > 0 (never sampled) makes the
    sum infinite. The group-by objectives (Eqs. 10–11) call this Err(g).
    """
    p_all = p.sum(axis=-2, keepdims=True)
    w = np.divide(p, p_all, out=np.zeros_like(p), where=p_all > 0)
    num = w**2 * sigma**2
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(num > 0, num / (p * t[..., None]), 0.0)
    return terms.sum(axis=-2)


def mse_for_allocation(
    p: np.ndarray, sigma: np.ndarray, t: np.ndarray, n: int
) -> float:
    """MSE of the combined estimator under allocation ``t`` with
    deterministic draws: :func:`err_coefs` of one group at allocation
    N·t, which is 0 when every w_k σ_k is 0 and infinite when a stratum
    with w_k σ_k > 0 gets no draws (also for N = 0)."""
    p = np.asarray(p, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    t = np.asarray(t, dtype=float)
    return float(err_coefs(p[:, None], sigma[:, None], t * n)[0])


def optimal_mse(p: np.ndarray, sigma: np.ndarray, n: int) -> float:
    """MSE under the optimal allocation: (Σ √p_k σ_k)² / (N p_all²)
    (Proposition 2, Eq. 4). Used for proxy selection (§3.4) and as the
    per-group Err(g) in the group-by objectives."""
    p = np.asarray(p, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    p_all = p.sum()
    if p_all <= 0 or n <= 0:
        return 0.0
    return float((np.sqrt(np.clip(p, 0, None)) * sigma).sum() ** 2 / (n * p_all**2))


def uniform_mse(p: np.ndarray, sigma: np.ndarray, n: int) -> float:
    """MSE of uniform allocation T_k = 1/K under deterministic draws —
    the §4.2 comparison point (≈ σ²/(N p_avg) in the homoscedastic
    case)."""
    k = np.asarray(p).size
    return mse_for_allocation(p, sigma, np.full(k, 1.0 / k), n)


def stage2_counts(t_hat: np.ndarray, n2: int) -> np.ndarray:
    """⌊N₂·T̂_k⌋ draws per stratum in Stage 2 (Algorithm 1 line 16).

    The paper rounds the fractional allocation down; §4.4.2 shows this
    does not change the convergence rate.
    """
    return np.floor(np.asarray(t_hat, dtype=float) * n2).astype(np.int64)
