"""Two-stage ABAE sampling (Algorithm 1) and baselines.

This module holds the only implementation of Algorithm 1. It is written
once, in :func:`abae_sample`, against a *sampling order*: each stratum's
records have ranks 1..|D_k|, and a ``draw(lo, hi)`` callback labels
ranks (lo_k, hi_k] of every stratum k.

* Stage 1 draws ranks (0, N₁/K] per stratum and forms plug-in
  estimates p̂_k, σ̂_k.
* Stage 2 draws ranks (N₁/K, N₁/K + ⌊N₂·T̂_k⌋] with T̂_k ∝ √p̂_k σ̂_k
  (Proposition 1), without replacement across both stages.
* With sample reuse (the default, and critical per the Fig. 9 lesion),
  the final estimates use the union of both stages' draws.

The paths differ only in their draw: ``abae_trial`` slices one random
ordered sample per stratum, just deep enough for both stages
(:func:`prefix_draw`), the Spark query
(``core.abae``) filters a seeded ``xxhash64`` rank, and the
combined-proxy trial (``core.proxy_select``) brings its own pilot to
:func:`abae_stage2` and draws Stage 2 with :func:`prefix_draw` over
each stratum's records outside the pilot. The group-by trials
(``core.groupby``) couple several stratifications and use the same
helpers around their own budget split.

Baselines: ``uniform_trial`` (the paper's main comparison) and
``abae_trial(..., reuse=False)`` (the Fig. 9 lesion).
"""
from __future__ import annotations

from collections.abc import Callable
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
        final: per-stratum plug-in estimates behind ``estimate``.
        allocation: T̂ used for Stage 2 (empty for uniform sampling).
        ci: (lower, upper) bootstrap CI of a Spark query (``core.abae``)
            run with ``n_boot`` > 0, else None.
    """

    estimate: float
    oracle_calls: int
    samples: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    stage1: list[StratumEstimate] = field(default_factory=list)
    final: list[StratumEstimate] = field(default_factory=list)
    allocation: np.ndarray = field(default_factory=lambda: np.array([]))
    ci: tuple[float, float] | None = None


#: ``draw(lo, hi)`` labels ranks (lo_k, hi_k] of each stratum k's
#: sampling order and returns them per stratum, in rank order, as a
#: tuple of arrays: ``(values, labels)`` on the scalar ABAE paths.
Draw = Callable[[np.ndarray, np.ndarray], list[tuple[np.ndarray, ...]]]


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
    calls. Group-by passes its G·K (stratification, stratum) bins."""
    if n_budget < k:
        raise ValueError(
            f"ABAE needs a budget of at least one draw per stratum: N={n_budget} < {k} strata"
        )


def prefix_draw(
    strata: list[tuple[np.ndarray, ...]], rng: np.random.Generator, depth: int | np.ndarray
) -> Draw:
    """A :data:`Draw` over in-memory strata: each stratum's sampling
    order begins with one uniformly random ordered sample of
    min(|D_k|, ``depth``) of its records, drawn without replacement, so
    ranks (lo_k, hi_k] are a slice of it and the stages draw without
    replacement. ``depth`` (one for all strata, or one per stratum) is
    the deepest rank any stage will ask for; a draw costs O(depth)
    random numbers per stratum, not O(|D_k|), and none at depth 0.

    ``strata[k]`` is a tuple of equally long arrays (e.g. values and
    labels); the draw returns the same tuple restricted to the ranks.

    The draw raises ValueError for ranks beyond ``depth`` in a stratum
    that has more rows, rather than return a short sample.
    """
    sizes = np.array([arrays[0].size for arrays in strata], dtype=np.int64)
    depths = np.minimum(sizes, depth)
    orders = [rng.choice(n, d, replace=False) for n, d in zip(sizes, depths)]

    def draw(lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        short = (hi > depths) & (depths < sizes)
        if short.any():
            raise ValueError(
                f"draw past the sampled prefix: ranks up to {hi[short]}"
                f" of strata {np.flatnonzero(short)}, prefix depth {depth}"
            )
        return [
            tuple(a[o[a_lo:a_hi]] for a in arrays)
            for arrays, o, a_lo, a_hi in zip(strata, orders, lo, hi)
        ]

    return draw


def pilot_allocation(pilot: list[StratumEstimate]) -> np.ndarray:
    """T̂_k ∝ √p̂_k·σ̂_k from the per-stratum pilot estimates
    (Proposition 1 with plug-in values)."""
    return optimal_allocation(
        np.array([e.p_hat for e in pilot]), np.array([e.sigma_hat for e in pilot])
    )


def stage2_extents(
    n1: np.ndarray, t_hat: np.ndarray, n2: int, sizes: np.ndarray
) -> np.ndarray:
    """Where Stage 2 ends in each stratum's order: after ⌊N₂·T̂_k⌋ more
    ranks than the n1_k of Stage 1, or at the end of the stratum."""
    return np.minimum(n1 + stage2_counts(t_hat, n2), sizes)


def abae_sample(
    sizes,
    n_budget: int,
    draw: Draw,
    *,
    stage1_frac: float = 0.5,
    reuse: bool = True,
) -> TrialResult:
    """Algorithm 1 (``ABAESample``) over the strata of sizes |D_k| in
    the order of ``draw``: Stage 1 draws ranks (0, N₁/K] of every
    stratum, the rest follows in :func:`abae_stage2`. The other
    arguments are those of :func:`abae_trial`, which also lists the
    errors raised.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    check_pilot_budget(n_budget, sizes.size)
    if not sizes.any():
        raise ValueError("ABAE over an empty table: every stratum is empty")
    n1_per, n2 = split_budget(n_budget, sizes.size, stage1_frac)
    n1 = np.minimum(n1_per, sizes)
    return abae_stage2(draw(np.zeros_like(n1), n1), sizes, n2, draw, reuse=reuse)


def abae_stage2(
    stage1: list[tuple[np.ndarray, np.ndarray]],
    sizes: np.ndarray,
    n2: int,
    draw: Draw,
    *,
    reuse: bool = True,
) -> TrialResult:
    """Algorithm 1 from the pilot on: T̂ from the Stage-1 samples, Stage
    2 on ranks (n1_k, n1_k + ⌊N₂·T̂_k⌋] of each stratum, where n1_k is
    the size of its Stage-1 sample, and Σ p̂_k μ̂_k / Σ p̂_k over both
    stages (``reuse``) or over Stage 2 alone."""
    n1 = np.array([v.size for v, _ in stage1], dtype=np.int64)
    pilot = [plugin_estimates(v, l) for v, l in stage1]
    t_hat = pilot_allocation(pilot)
    stage2 = draw(n1, stage2_extents(n1, t_hat, n2, sizes))
    samples = [
        (np.concatenate([v1, v2]), np.concatenate([l1, l2]))
        for (v1, l1), (v2, l2) in zip(stage1, stage2)
    ]
    final = [plugin_estimates(v, l) for v, l in (samples if reuse else stage2)]
    return TrialResult(
        estimate=combine([e.p_hat for e in final], [e.mu_hat for e in final]),
        oracle_calls=sum(v.size for v, _ in samples),
        samples=samples,
        stage1=pilot,
        final=final,
        allocation=t_hat,
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
    """Run one ABAE trial (Algorithm 1, ``ABAESample``) on in-memory
    strata, in the order of :func:`prefix_draw`, drawn N₁/K + N₂ ranks
    deep: Stage 2 ends at N₁/K + ⌊N₂·T̂_k⌋ at most.

    Args:
        strata: per-stratum (values, labels) arrays.
        n_budget: total oracle budget N.
        rng: the trial's random generator (seeded by the harness).
        stage1_frac: fraction C of budget given to Stage 1.
        reuse: reuse Stage-1 samples in the final estimates (lesion
            study disables this).
        oracle: optional ``SimulatedOracle`` to charge invocations to.

    Raises:
        ValueError: if ``n_budget`` is smaller than the number of
            strata, or if every stratum is empty.
    """
    n1_per, n2 = split_budget(n_budget, len(strata), stage1_frac)
    take = prefix_draw(strata, rng, n1_per + n2)

    def draw(lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(v, l if oracle is None else oracle.call(l)) for v, l in take(lo, hi)]

    return abae_sample(
        [v.size for v, _ in strata], n_budget, draw, stage1_frac=stage1_frac, reuse=reuse
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
