"""Two-stage ABAE sampling kernel and baselines (Algorithm 1).

This is the Monte-Carlo core shared by the experiment harness and the
Spark query path. A trial operates on per-stratum ``(values, labels)``
numpy arrays (see ``core.stratify.strata_arrays``):

* Stage 1 draws N₁/K records per stratum uniformly without replacement
  and forms plug-in estimates p̂_k, σ̂_k.
* Stage 2 draws ⌊N₂·T̂_k⌋ further records with T̂_k ∝ √p̂_k σ̂_k
  (Proposition 1), without replacement across both stages.
* With sample reuse (the default, and critical per the Fig. 9 lesion),
  the final estimates use the union of both stages' draws.

Without-replacement across stages is implemented with one random
permutation per stratum per trial: Stage 1 takes the first ranks,
Stage 2 the next ranks — the same ordering trick the Spark path uses
with a seeded ``xxhash64`` rank.

Baselines: ``uniform_trial`` (the paper's main comparison) and
``abae_trial(..., reuse=False)`` (the Fig. 9 lesion).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import optimal_allocation, stage2_counts
from repro.core.estimator import StratumEstimate, combine, plugin_estimates


@dataclass
class TrialResult:
    """Outcome of one sampling trial.

    Attributes:
        estimate: μ̂_all, the approximate answer.
        oracle_calls: number of oracle invocations spent.
        samples: per-stratum (values, labels) of *all* draws made, in
            draw order — the input to the bootstrap (Algorithm 2).
        stage1: per-stratum Stage-1 plug-in estimates.
        allocation: T̂ used for Stage 2 (empty for uniform sampling).
    """

    estimate: float
    oracle_calls: int
    samples: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    stage1: list[StratumEstimate] = field(default_factory=list)
    allocation: np.ndarray = field(default_factory=lambda: np.array([]))


def split_budget(n_budget: int, k: int, stage1_frac: float) -> tuple[int, int]:
    """(per-stratum Stage-1 draws, total Stage-2 budget).

    The paper allocates a fraction C of the budget to Stage 1, split
    evenly across the K strata; Stage 2 gets the remainder.
    """
    if not 0.0 < stage1_frac < 1.0:
        raise ValueError(f"stage1_frac must be in (0,1), got {stage1_frac}")
    n1_per = max(1, int(n_budget * stage1_frac) // k)
    n2 = n_budget - n1_per * k
    return n1_per, max(0, n2)


def check_pilot_budget(n_budget: int, k: int) -> None:
    """Reject ``ORACLE LIMIT`` N < K for ABAE: Stage 1 draws at least one
    pilot record from every stratum, so it alone would spend K > N
    calls."""
    if n_budget < k:
        raise ValueError(
            f"ABAE needs a budget of at least one draw per stratum: N={n_budget} < K={k}"
        )


def abae_trial(
    strata: list[tuple[np.ndarray, np.ndarray]],
    n_budget: int,
    rng: np.random.Generator,
    *,
    stage1_frac: float = 0.5,
    reuse: bool = True,
    oracle=None,
) -> TrialResult:
    """Run one ABAE trial (Algorithm 1, ``ABAESample``).

    Args:
        strata: per-stratum (values, labels) arrays.
        n_budget: total oracle budget N.
        rng: the trial's random generator (seeded by the harness).
        stage1_frac: fraction C of budget given to Stage 1.
        reuse: reuse Stage-1 samples in the final estimates (lesion
            study disables this).
        oracle: optional ``SimulatedOracle`` to charge invocations to.

    Raises:
        ValueError: if ``n_budget`` is smaller than the number of strata.
    """
    k = len(strata)
    check_pilot_budget(n_budget, k)
    n1_per, n2 = split_budget(n_budget, k, stage1_frac)

    perms = []
    stage1_ests: list[StratumEstimate] = []
    for vals, labs in strata:
        perm = rng.permutation(vals.size)
        perms.append(perm)
        take = perm[: min(n1_per, vals.size)]
        stage1_ests.append(plugin_estimates(vals[take], labs[take]))

    p1 = np.array([e.p_hat for e in stage1_ests])
    s1 = np.array([e.sigma_hat for e in stage1_ests])
    t_hat = optimal_allocation(p1, s1)
    extra = stage2_counts(t_hat, n2)

    samples: list[tuple[np.ndarray, np.ndarray]] = []
    final_p = np.zeros(k)
    final_mu = np.zeros(k)
    calls = 0
    for i, (vals, labs) in enumerate(strata):
        n1_i = min(n1_per, vals.size)
        n2_i = min(int(extra[i]), vals.size - n1_i)
        idx_all = perms[i][: n1_i + n2_i]
        calls += idx_all.size
        v_all, l_all = vals[idx_all], labs[idx_all]
        if oracle is not None:
            l_all = oracle.call(l_all)
        samples.append((v_all, l_all))
        if reuse:
            est = plugin_estimates(v_all, l_all)
        else:
            est = plugin_estimates(v_all[n1_i:], l_all[n1_i:])
        final_p[i], final_mu[i] = est.p_hat, est.mu_hat

    return TrialResult(
        estimate=combine(final_p, final_mu),
        oracle_calls=calls,
        samples=samples,
        stage1=stage1_ests,
        allocation=t_hat,
    )


def uniform_trial(
    values: np.ndarray,
    labels: np.ndarray,
    n_budget: int,
    rng: np.random.Generator,
    *,
    oracle=None,
) -> TrialResult:
    """Uniform sampling baseline: draw N records without replacement
    from the whole dataset and average the statistic over positives."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    n = min(n_budget, values.size)
    idx = rng.choice(values.size, size=n, replace=False)
    v, l = values[idx], labels[idx]
    if oracle is not None:
        l = oracle.call(l)
    est = plugin_estimates(v, l)
    return TrialResult(estimate=est.mu_hat, oracle_calls=n, samples=[(v, l)])


def deterministic_draw_trial(
    strata: list[tuple[np.ndarray, np.ndarray]],
    t: np.ndarray,
    n_budget: int,
    rng: np.random.Generator,
) -> TrialResult:
    """The §4.2 idealized setting: known allocation T, and the draws
    from stratum k are taken directly from its positive records
    (B_k = ⌈p_k·T_k·N⌉ deterministic positive draws). Used by tests to
    verify Propositions 1–2 numerically."""
    k = len(strata)
    final_p = np.zeros(k)
    final_mu = np.zeros(k)
    calls = 0
    for i, (vals, labs) in enumerate(strata):
        pos = vals[labs == 1]
        p_k = pos.size / vals.size if vals.size else 0.0
        b_k = int(np.ceil(p_k * t[i] * n_budget))
        final_p[i] = p_k
        if b_k == 0 or pos.size == 0:
            continue
        b_k = min(b_k, pos.size)
        take = rng.choice(pos.size, size=b_k, replace=False)
        calls += b_k
        final_mu[i] = float(pos[take].mean())
    return TrialResult(estimate=combine(final_p, final_mu), oracle_calls=calls)
