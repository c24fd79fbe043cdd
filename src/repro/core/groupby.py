"""ABAE-GroupBy (§3.2, §4.5): minimax-error group-by aggregation.

A group-by query has G groups; each group g has its own proxy, which
induces its own stratification of the dataset. ABAE-GroupBy:

1. pilot-samples to estimate per-(stratification, group, stratum)
   quantities p̂, σ̂, μ̂;
2. computes within-stratification allocations T̂_{l,k} (Prop. 1, for
   the stratification's own group);
3. splits the Stage-2 budget across stratifications with weights Λ
   minimizing the *maximum* per-group MSE — Eq. 10 (single oracle that
   returns the group key; estimates shared across stratifications and
   combined by inverse-variance weighting) or Eq. 11 (one oracle per
   group; only l = g informs group g) — Eq. 10 solved by Nelder–Mead,
   Eq. 11 in closed form;
4. runs Stage 2 and combines estimates (with sample reuse).

Baseline: uniform sampling with the same total oracle budget.

Oracle-call accounting: in the single-oracle setting one invocation
labels a record for every group, and repeated draws of the same record
across stratifications are cached (counted once).

In the single-oracle trial the per-bin p̂, μ̂, σ̂ of all G groups come
from one :func:`~repro.core.estimator.group_estimates` pass over a
stage's (stratification, stratum) bins, and the Err coefficients, T̂
and the inverse-variance combination are computed on those (L, K, G)
arrays. The multiple-oracle trial needs only group l's estimates in
stratification l and keeps :func:`~repro.core.estimator.plugin_estimates`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import err_coefs, optimal_allocation
from repro.core.estimator import (
    combine,
    group_estimates,
    plugin_estimates,
)
from repro.core.sampler import (
    check_pilot_budget,
    prefix_draw,
    split_budget,
    stage2_extents,
)
from repro.core.stratify import _by_stratum, stratify_indices
from repro.optimize.nelder_mead import minimize_on_simplex


@dataclass
class GroupByData:
    """Per-stratification strata arrays for a group-by query.

    Attributes:
        strata: ``strata[l][k] = (values, groups, ids)`` — stratum k of
            the stratification induced by group l's proxy. ``groups``
            holds the hidden group key (−1 = no group); ``ids`` are
            global record ids (for single-oracle call caching).
        n_groups: G.
    """

    strata: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]
    n_groups: int

    @property
    def k(self) -> int:
        return len(self.strata[0])


def build_groupby_data(pdf, proxy_cols: list[str], k: int) -> GroupByData:
    """Build :class:`GroupByData` from a surrogate dataset frame with
    ``value``, ``group`` and per-group proxy columns."""
    values = pdf["value"].to_numpy(dtype=float)
    groups = pdf["group"].to_numpy(dtype=np.int64)
    ids = pdf["id"].to_numpy(dtype=np.int64)
    strata = [
        _by_stratum(stratify_indices(pdf[col].to_numpy(), k, ids=ids), k, values, groups, ids)
        for col in proxy_cols
    ]
    return GroupByData(strata=strata, n_groups=len(proxy_cols))


@dataclass
class GroupTrialResult:
    """Per-group estimates plus the oracle-call spend of one trial."""

    estimates: np.ndarray
    oracle_calls: int
    allocation: np.ndarray


def _err_coefs(p: np.ndarray, sigma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Err(g): :func:`~repro.core.allocation.err_coefs` capped at 1e12,
    so unsampleable configurations (t_k = 0 where the group lives) stay
    numeric for Nelder–Mead."""
    return np.minimum(err_coefs(p, sigma, t), 1e12)


def solve_minimax_multi(coefs: np.ndarray, n2: int) -> np.ndarray:
    """Eq. 11: min over Λ of max_g coef_g/(Λ_g·N₂).

    Each group's error falls only with its own Λ_g, so the minimax is
    where all errors are equal: Λ_g = coef_g / Σ coef (closed form).
    """
    coefs = np.maximum(np.asarray(coefs, dtype=float), 1e-12)
    return coefs / coefs.sum()


def solve_minimax_single(coef_lg: np.ndarray, n2: int) -> np.ndarray:
    """Eq. 10: min over Λ of max_g (Σ_l (coef_{l,g}/(Λ_l·N₂))⁻¹)⁻¹, via
    Nelder–Mead.

    ``coef_lg[l, g]`` is the Err coefficient of group g's estimate when
    sampling via stratification l. Group g's precision is Σ_l Λ_l·prec_{l,g}
    with prec = N₂/coef, so the objective is one over the smallest
    precision.
    """
    prec = n2 / np.maximum(np.asarray(coef_lg, dtype=float), 1e-12)

    def objective(lam: np.ndarray) -> float:
        return 1.0 / float((np.maximum(lam, 1e-12) @ prec).min())

    return minimize_on_simplex(objective, prec.shape[0])


def _n_distinct(ids: list[np.ndarray]) -> int:
    """Number of distinct record ids in ``ids`` (oracle calls with a
    label cache)."""
    return int(np.unique(np.concatenate(ids)).size)


def _pilot(data: GroupByData, n_budget: int, rng: np.random.Generator, stage1_frac: float):
    """Stage 1 of both group-by trials: one :func:`prefix_draw` per
    stratification and its first ⌊C·N/(G·K)⌋ ranks in every stratum.
    The draws are N deep: Stage 2 ends at n1_k + ⌊Λ_l·N₂⌋ ≤ N.

    Returns (draws, sizes, n1, pilot samples), each indexed by
    stratification l.

    Raises:
        ValueError: if N < G·K, below one pilot draw per bin.
    """
    g_n, k = data.n_groups, data.k
    check_pilot_budget(n_budget, g_n * k)
    n1_per, _ = split_budget(n_budget, g_n * k, stage1_frac)
    draws = [prefix_draw(data.strata[l], rng, n_budget) for l in range(g_n)]
    sizes = [np.array([b[0].size for b in data.strata[l]]) for l in range(g_n)]
    n1 = [np.minimum(n1_per, s) for s in sizes]
    drawn = [draws[l](np.zeros(k, dtype=np.int64), n1[l]) for l in range(g_n)]
    return draws, sizes, n1, drawn


def groupby_multi_trial(
    data: GroupByData,
    n_budget: int,
    rng: np.random.Generator,
    *,
    stage1_frac: float = 0.5,
    oracle=None,
) -> GroupTrialResult:
    """One ABAE-GroupBy trial, multiple-oracle setting (Eq. 11).

    Budget accounting: every draw from stratification g costs one call
    to group-g's oracle. Stage 1 spends (stage1_frac·N)/G per group,
    split evenly over its strata; Stage 2 splits the rest by Λ.

    Raises:
        ValueError: if N < G·K (see :func:`_pilot`).
    """
    g_n = data.n_groups
    draws, sizes, n1, drawn = _pilot(data, n_budget, rng, stage1_frac)
    pilots = [[plugin_estimates(v, grps == l) for v, grps, _ in drawn[l]] for l in range(g_n)]
    # p[l, k], sigma[l, k]: group l's pilot estimates in stratum k of
    # its own stratification.
    p = np.array([[e.p_hat for e in pilot] for pilot in pilots])
    sigma = np.array([[e.sigma_hat for e in pilot] for pilot in pilots])
    t_hats = np.array([optimal_allocation(p[l], sigma[l]) for l in range(g_n)])
    coefs = _err_coefs(p[..., None], sigma[..., None], t_hats)[..., 0]

    calls = int(sum(n.sum() for n in n1))
    n2 = n_budget - calls
    lam = solve_minimax_multi(coefs, max(n2, 1))

    estimates = np.zeros(g_n)
    for l in range(g_n):
        hi = stage2_extents(n1[l], t_hats[l], int(lam[l] * n2), sizes[l])
        calls += int((hi - n1[l]).sum())
        final = [plugin_estimates(v, grps == l) for v, grps, _ in draws[l](np.zeros_like(hi), hi)]
        estimates[l] = combine([e.p_hat for e in final], [e.mu_hat for e in final])
    if oracle is not None:
        oracle.charge(calls)
    return GroupTrialResult(estimates=estimates, oracle_calls=calls, allocation=lam)


def groupby_single_trial(
    data: GroupByData,
    n_budget: int,
    rng: np.random.Generator,
    *,
    stage1_frac: float = 0.5,
    oracle=None,
) -> GroupTrialResult:
    """One ABAE-GroupBy trial, single-oracle setting (Eq. 10).

    One oracle invocation reveals the full group key, so a sampled
    record informs *every* group; estimates from all stratifications
    are merged by inverse-variance weighting. Records drawn through
    more than one stratification are oracle-labeled once (cached).

    Raises:
        ValueError: if N < G·K (see :func:`_pilot`).
    """
    g_n, k = data.n_groups, data.k
    draws, sizes, n1, drawn = _pilot(data, n_budget, rng, stage1_frac)

    # p[l, k, g], sigma[l, k, g]: group g's pilot estimates in stratum k
    # of stratification l.
    pilot = group_estimates([b for bins in drawn for b in bins], g_n)
    p = pilot.p_hat.reshape(g_n, k, g_n)
    sigma = pilot.sigma_hat.reshape(p.shape)
    t_hats = np.array([optimal_allocation(p[l, :, l], sigma[l, :, l]) for l in range(g_n)])
    coef_lg = _err_coefs(p, sigma, t_hats)

    n2 = n_budget - _n_distinct([ids for bins in drawn for _, _, ids in bins])
    lam = solve_minimax_single(coef_lg, max(n2, 1))

    # ---- Stage 2 draws (with Stage-1 reuse per bin), in order (l, k) ----
    samp = []
    for l in range(g_n):
        hi = stage2_extents(n1[l], t_hats[l], int(lam[l] * n2), sizes[l])
        samp += draws[l](np.zeros_like(hi), hi)
    calls = _n_distinct([ids for _, _, ids in samp])

    # ---- Inverse-variance combination across stratifications ----
    # Eq. 10 weighs each stratification's estimate by its (plug-in)
    # variance. At finite budgets the per-bin σ̂ are too noisy to weigh
    # with (a bin with one positive has σ̂ = 0 and would absorb all the
    # weight), so we use the *pooled* per-group σ̂ over every labeled
    # draw — stable, since a single oracle call labels every group —
    # and the realized positive-draw counts, which also credits the
    # Stage-1 reuse that Eq. 10's asymptotic form drops.
    pooled = group_estimates(
        [(np.concatenate([v for v, _, _ in samp]), np.concatenate([gr for _, gr, _ in samp]))],
        g_n,
    )
    sig = pooled.sigma_hat[0]
    # Per (stratification l, group g): the K-strata combined estimate,
    # weighed by one over its variance.
    final = group_estimates(samp, g_n)
    p = final.p_hat.reshape(g_n, k, g_n)
    b_pos = final.n_pos.reshape(p.shape)
    p_all = p.sum(axis=1)
    used = (p_all > 0) & (b_pos.sum(axis=1) >= 3) & (sig > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        combined = (p * final.mu_hat.reshape(p.shape)).sum(axis=1) / p_all
        w = p / p_all[:, None, :]
        var_lg = sig**2 * (w**2 / np.maximum(b_pos, 0.5)).sum(axis=1)
        num = np.where(used, combined / var_lg, 0.0).sum(axis=0)
        den = np.where(used, 1.0 / var_lg, 0.0).sum(axis=0)
        estimates = np.where(den > 0, num / den, 0.0)
    # No stratification qualified: a group whose positives all share
    # one value is that value.
    constant = (den == 0) & (sig == 0) & (pooled.n_pos[0] > 0)
    estimates[constant] = pooled.mu_hat[0][constant]
    if oracle is not None:
        oracle.charge(calls)
    return GroupTrialResult(estimates=estimates, oracle_calls=calls, allocation=lam)


def groupby_uniform_trial(
    values: np.ndarray,
    groups: np.ndarray,
    n_budget: int,
    rng: np.random.Generator,
    n_groups: int,
    *,
    per_group_oracle: bool = False,
) -> GroupTrialResult:
    """Uniform-sampling baseline for group-by queries.

    Single oracle: N uniform draws, each labeled with its group key.
    Multiple oracles: the budget is split evenly — N/G uniform draws
    per group oracle, which can only answer membership in that group.
    """
    values = np.asarray(values, dtype=float)
    groups = np.asarray(groups)
    per = max(1, n_budget // n_groups) if per_group_oracle else n_budget
    estimates = np.zeros(n_groups)
    calls = 0
    for g in range(n_groups):
        if per_group_oracle or g == 0:
            idx = rng.choice(values.size, size=min(per, values.size), replace=False)
            calls += idx.size
        pos = values[idx][groups[idx] == g]
        estimates[g] = float(pos.mean()) if pos.size else 0.0
    return GroupTrialResult(
        estimates=estimates, oracle_calls=calls, allocation=np.array([])
    )
