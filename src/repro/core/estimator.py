"""Plug-in estimates and the combined stratified estimator.

Algorithm 1 computes, per stratum k, from sampled records R_k and their
positive subset X_k = {f(x) : x ∈ R_k, O(x)=1}:

* p̂_k = |X_k| / |R_k|          (predicate positive rate)
* μ̂_k = mean(X_k)  (0 if empty)
* σ̂_k = sample std of X_k (ddof=1; 0 if fewer than 2 positives)

and returns the combined estimate Σ_k p̂_k μ̂_k / Σ_k p̂_k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class StratumEstimate:
    """Plug-in estimates for one stratum."""

    n_draws: int
    n_pos: int
    p_hat: float
    mu_hat: float
    sigma_hat: float


def plugin_estimates(values: np.ndarray, labels: np.ndarray) -> StratumEstimate:
    """Compute (p̂, μ̂, σ̂) from one stratum's sampled draws.

    Args:
        values: f(x) for each sampled record (any value for negatives —
            they are masked by ``labels``).
        labels: O(x) ∈ {0,1} per sampled record.
    """
    labels = np.asarray(labels)
    values = np.asarray(values, dtype=float)
    n = int(labels.size)
    pos = values[labels == 1]
    n_pos = int(pos.size)
    p_hat = n_pos / n if n > 0 else 0.0
    mu_hat = float(pos.mean()) if n_pos > 0 else 0.0
    sigma_hat = float(pos.std(ddof=1)) if n_pos > 1 else 0.0
    return StratumEstimate(n, n_pos, p_hat, mu_hat, sigma_hat)


@dataclass
class GroupEstimates:
    """Plug-in estimates of every group in each of B bins: arrays of
    shape (B, G) whose entry [b, g] is what :func:`plugin_estimates`
    gives for bin b's draws labeled ``groups == g``."""

    n_pos: np.ndarray
    p_hat: np.ndarray
    mu_hat: np.ndarray
    sigma_hat: np.ndarray


def group_estimates(bins: list[tuple[np.ndarray, ...]], n_groups: int) -> GroupEstimates:
    """(n_pos, p̂, μ̂, σ̂) of groups 0..G−1 in every bin at once.

    ``bins[b]`` starts with the arrays (values, groups) of one bin's
    draws; a group key outside 0..G−1 (−1 = no group) is negative for
    every group. One ``bincount`` pass over all bins gives the counts
    and sums, and a second the squared deviations from each mean (σ̂
    with ddof = 1, as :func:`plugin_estimates`). Sums run in draw
    order, so the results match :func:`plugin_estimates` to rounding.
    """
    n_draws = np.array([b[1].size for b in bins], dtype=np.int64)
    values = np.asarray(np.concatenate([b[0] for b in bins]), dtype=float)
    groups = np.concatenate([b[1] for b in bins])
    # Slot 0 of each bin's G + 1 collects the draws in no group.
    width = n_groups + 1
    slot = np.where((groups >= 0) & (groups < n_groups), groups + 1, 0)
    key = np.repeat(np.arange(len(bins)) * width, n_draws) + slot
    size = len(bins) * width
    n_pos = np.bincount(key, minlength=size)
    mu = np.bincount(key, weights=values, minlength=size) / np.maximum(n_pos, 1)
    dev = values - mu[key]
    ss = np.bincount(key, weights=dev * dev, minlength=size)
    sigma = np.where(n_pos > 1, np.sqrt(ss / np.maximum(n_pos - 1, 1)), 0.0)

    def per_group(a: np.ndarray) -> np.ndarray:
        return a.reshape(len(bins), width)[:, 1:]

    n_pos = per_group(n_pos)
    return GroupEstimates(
        n_pos=n_pos,
        p_hat=n_pos / np.maximum(n_draws, 1)[:, None],
        mu_hat=per_group(mu),
        sigma_hat=per_group(sigma),
    )


def combine(p_hats: np.ndarray, mu_hats: np.ndarray) -> float:
    """μ̂_all = Σ_k p̂_k μ̂_k / Σ_k p̂_k (Algorithm 1 line 20).

    Returns 0.0 when no stratum produced a positive sample — the same
    convention as the per-stratum means.
    """
    p_hats = np.asarray(p_hats, dtype=float)
    mu_hats = np.asarray(mu_hats, dtype=float)
    denom = p_hats.sum()
    if denom <= 0.0:
        return 0.0
    return float((p_hats * mu_hats).sum() / denom)


def true_strata_params(
    strata: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive (p_k, σ_k, μ_k) over full strata — the "perfect
    information" quantities of §4.2, used by tests and by the
    deterministic-draw formulas — or their plug-in values over a
    stratified pilot (proxy selection, §3.4)."""
    p = np.zeros(len(strata))
    sigma = np.zeros(len(strata))
    mu = np.zeros(len(strata))
    for k, (vals, labs) in enumerate(strata):
        est = plugin_estimates(vals, labs)
        p[k], sigma[k], mu[k] = est.p_hat, est.sigma_hat, est.mu_hat
    return p, sigma, mu
