"""Nonparametric bootstrap confidence intervals (Algorithm 2).

ABAE resamples the per-stratum draws from *both* stages (they are
i.i.d. within a stratum), recomputes p̂*_k and μ̂*_k per replicate, and
returns the percentile interval of the combined estimates.

The paper notes the bootstrap is cheap relative to oracle calls; we
additionally vectorize across replicates and draw only what a replicate
depends on: per stratum, its count of positives and the sum of their
values (see :func:`bootstrap_replicates`), so the work grows with the
positives drawn rather than with B·m_k.
"""
from __future__ import annotations

import numpy as np


def check_bootstrap(n_boot: int, alpha: float) -> None:
    """Raise ``ValueError`` unless ``n_boot`` ≥ 1 and 0 < ``alpha`` < 1,
    the settings a percentile interval is defined for."""
    if not (n_boot >= 1 and 0 < alpha < 1):
        raise ValueError(f"need n_boot >= 1 and 0 < alpha < 1, got n_boot={n_boot}, alpha={alpha}")


def bootstrap_ci(
    samples: list[tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    *,
    n_boot: int = 1000,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the combined estimator.

    Args:
        samples: per-stratum (values, labels) of all draws made by the
            trial (``TrialResult.samples``).
        rng: generator for the resampling.
        n_boot: number of bootstrap replicates β.
        alpha: 1 − confidence level (0.05 → 95% CI).

    Returns:
        (lower, upper) percentile interval.

    Raises:
        ValueError: unless ``n_boot`` ≥ 1 and 0 < ``alpha`` < 1.
    """
    check_bootstrap(n_boot, alpha)
    mu_b = bootstrap_replicates(samples, rng, n_boot=n_boot)
    lo, hi = np.percentile(mu_b, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return float(lo), float(hi)


def bootstrap_replicates(
    samples: list[tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    *,
    n_boot: int = 1000,
) -> np.ndarray:
    """The β combined-estimate replicates μ̂*_b (Algorithm 2 lines 2–8),
    vectorized over replicates.

    A resample of stratum k's m_k draws enters μ̂*_b only through its
    positive count c* ~ Binomial(m_k, n_pos/m_k) and the sum of its
    positive values, which given c* is a sum of c* i.i.d. draws from
    the stratum's positive values: p̂*_k = c*/m_k and p̂*_k·μ̂*_k =
    sum/m_k. Both are drawn for all replicates at once, the sums as
    differences of one cumulative sum over Σ_b c*_b gathered values,
    so the distribution is Algorithm 2's exactly.
    """
    n_boot = int(n_boot)
    num = np.zeros(n_boot)  # Σ_k p̂*_k μ̂*_k
    den = np.zeros(n_boot)  # Σ_k p̂*_k
    for vals, labs in samples:
        m = int(vals.size)
        pos = np.asarray(vals, dtype=float)[np.asarray(labs, dtype=bool)]
        if pos.size == 0:
            continue  # p̂*_k = 0 in every replicate
        c = rng.binomial(m, pos.size / m, size=n_boot)
        ends = np.cumsum(c)
        drawn = pos[rng.integers(0, pos.size, size=ends[-1])]
        csum = np.concatenate(([0.0], np.cumsum(drawn)))
        num += (csum[ends] - csum[ends - c]) / m
        den += c / m
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
