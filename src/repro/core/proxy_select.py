"""Proxy selection and combination (§3.4).

Given several candidate proxies for one expensive predicate, ABAE
ranks them *at query time* using only the Stage-1 pilot sample: for
each proxy it stratifies the pilot by that proxy's score quantiles,
forms plug-in p̂_k / σ̂_k, and evaluates the perfect-information,
deterministic-draw MSE formula (Proposition 2). The proxy with the
lowest predicted MSE wins. The paper notes the formula is not exact in
the stochastic-draw setting but is a good predictor of *relative*
performance — which is all selection needs.

ABAE can also *combine* proxies: fit a logistic regression on the
pilot (proxy scores → predicate) and use the predicted probability as
a single merged proxy. Fig. 12 shows this beats any single proxy and
effectively ignores junk proxies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.allocation import optimal_mse
from repro.core.estimator import true_strata_params
from repro.core.sampler import TrialResult, abae_stage2, prefix_draw
from repro.core.stratify import _by_stratum, strata_arrays, stratify_indices
from repro.optimize.logistic import LogisticModel, fit_logistic


def estimate_proxy_mse(
    scores: np.ndarray,
    values: np.ndarray,
    labels: np.ndarray,
    *,
    k: int = 5,
    n_budget: int = 10_000,
) -> float:
    """Predicted MSE (Prop. 2) of running ABAE with this proxy.

    Args:
        scores: pilot-sample proxy scores for this candidate.
        values: pilot-sample statistic values.
        labels: pilot-sample oracle labels.
        k: number of strata the query would use.
        n_budget: the query's oracle budget N.
    """
    p, sigma, _ = true_strata_params(strata_arrays(scores, values, labels, k))
    return optimal_mse(p, sigma, n_budget)


@dataclass
class ProxyChoice:
    """Outcome of proxy selection."""

    best: str
    predicted_mse: dict[str, float]


def select_proxy(
    pilot_scores: dict[str, np.ndarray],
    values: np.ndarray,
    labels: np.ndarray,
    *,
    k: int = 5,
    n_budget: int = 10_000,
) -> ProxyChoice:
    """Rank candidate proxies by predicted MSE and pick the best.

    Ties (including the all-zero-σ̂ degenerate pilot) break in favor of
    the first candidate in insertion order.
    """
    mses = {
        name: estimate_proxy_mse(sc, values, labels, k=k, n_budget=n_budget)
        for name, sc in pilot_scores.items()
    }
    best = min(mses, key=lambda n: (mses[n], list(mses).index(n)))
    return ProxyChoice(best=best, predicted_mse=mses)


@dataclass
class CombinedProxy:
    """A logistic-regression merge of several proxies (§3.4 last ¶)."""

    model: LogisticModel
    proxy_names: tuple[str, ...]

    def score(self, scores: dict[str, np.ndarray]) -> np.ndarray:
        """Combined score for the full dataset (exhaustively cheap —
        proxies are assumed executable over all records, §2.1)."""
        x = np.column_stack([np.asarray(scores[n], dtype=float) for n in self.proxy_names])
        return self.model.predict_proba(x)


def combine_proxies(
    pilot_scores: dict[str, np.ndarray],
    labels: np.ndarray,
    *,
    l2: float = 1e-3,
) -> CombinedProxy:
    """Fit the logistic combination on the Stage-1 pilot sample."""
    names = tuple(pilot_scores)
    x = np.column_stack([np.asarray(pilot_scores[n], dtype=float) for n in names])
    model = fit_logistic(x, np.asarray(labels), l2=l2)
    return CombinedProxy(model=model, proxy_names=names)


def combined_proxy_trial(
    scores: dict[str, np.ndarray],
    values: np.ndarray,
    labels: np.ndarray,
    n_budget: int,
    rng: np.random.Generator,
    *,
    k: int = 5,
    pilot_frac: float = 0.5,
) -> TrialResult:
    """One Fig.-12 trial: ABAE with a logistic proxy combination.

    The pilot doubles as Stage 1 (§3.4: the combination is trained on
    Stage-1 samples, which are then *reused*): a uniform pilot of
    ``pilot_frac·N`` records is oracle-labeled, the logistic merge is
    fit on it, the dataset is stratified by the merged score, the pilot
    records land in their strata as Stage-1 samples, and the remaining
    budget is allocated by √p̂σ̂ as usual. Total oracle spend ≤ N.

    Returns:
        The trial's estimate μ̂_all, oracle calls and samples (pilot
        records included, as Stage 1).

    Raises:
        ValueError: if the pilot (at least 50 records) exceeds N.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    n = values.size
    m = min(max(50, int(n_budget * pilot_frac)), n)
    if m > n_budget:
        raise ValueError(f"the pilot of {m} records exceeds the budget N={n_budget}")
    pilot = rng.choice(n, size=m, replace=False)
    cp = combine_proxies({c: np.asarray(s)[pilot] for c, s in scores.items()}, labels[pilot])
    stratum = stratify_indices(cp.score(scores), k)

    stage1 = _by_stratum(stratum[pilot], k, values[pilot], labels[pilot])
    rest = np.delete(np.arange(n), pilot)
    outside = _by_stratum(stratum[rest], k, values[rest], labels[rest])

    def draw(lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Stage 2: ranks past the pilot's are a uniformly random order
        of the stratum's records outside the pilot."""
        return prefix_draw(outside, rng, hi - lo)(np.zeros_like(lo), hi - lo)

    sizes = np.bincount(stratum, minlength=k)
    return abae_stage2(stage1, sizes, n_budget - m, draw)
