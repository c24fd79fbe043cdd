"""Surrogates for the paper's six evaluation datasets (Table 2) and the
synthetic datasets of Figs. 6–8 and 12.

We do not have the original media (video frames, CelebA images, TREC
emails, Amazon reviews) nor the DNN oracles, so each dataset is
simulated at the level ABAE actually consumes: the joint distribution
of (proxy score, oracle label, statistic). Each surrogate matches the
paper's record count (scaled by ``scale``), predicate positive rate,
statistic family, and a per-dataset proxy quality (good TASTI/MobileNet
proxies vs weak keyword/NLTK rules). See DESIGN.md §2 for the
substitution argument.

Every generator is deterministic in ``seed`` so the DuckDB oracle sees
identical input, and returns a :class:`Dataset` that can materialize a
Spark DataFrame, per-stratum numpy arrays for the Monte-Carlo kernels,
and the exhaustive ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.multipred import And, Pred
from repro.core.stratify import strata_arrays
from repro.simulate.proxies import (
    calibrate_intercept,
    labels_from_latent,
    noisy_proxy,
    sigmoid,
)

# Paper record counts (Table 2).
PAPER_SIZES = {
    "night_street": 973_136,
    "taipei": 1_187_850,
    "celeba": 202_599,
    "amazon_posters": 35_815,
    "trec05p": 52_578,
    "amazon_office": 800_144,
}

#: The six real-world surrogates evaluated in Figs. 2–5, 9–11.
REAL_WORLD = tuple(PAPER_SIZES)


@dataclass
class Dataset:
    """A materialized surrogate dataset.

    Attributes:
        name: dataset identifier.
        pdf: pandas frame with at least ``id``, ``proxy``, ``value``
            (the statistic f(x)) and ``label`` (the hidden oracle
            predicate O(x)); group-by surrogates add ``group`` and
            per-group proxy columns; multi-proxy surrogates add
            ``proxy_<i>`` columns.
        proxy_cols: all proxy-score columns available.
        n_groups: number of group-by keys (0 for plain datasets).
    """

    name: str
    pdf: pd.DataFrame
    proxy_cols: tuple[str, ...] = ("proxy",)
    n_groups: int = 0

    def to_spark(self, spark: SparkSession) -> DataFrame:
        """Materialize as a Spark DataFrame (Arrow-backed), checkpointed
        into the executors' block manager.

        ``createDataFrame`` of a frame under
        ``spark.sql.execution.arrow.localRelationThreshold`` yields a
        ``LocalRelation``: the plan itself embeds every row, so each job
        on it ships the whole table inside its tasks and each analysis
        walks it (~1.3 s per ``count()`` and 0.25 s per analysis at
        973k rows). ``localCheckpoint`` cuts that lineage, so the plan
        holds a scan of cached blocks and no ``LocalTableScan``.
        """
        return spark.createDataFrame(self.pdf).localCheckpoint()

    def ground_truth(self) -> float:
        """μ = mean of the statistic over records satisfying the predicate."""
        pos = self.pdf[self.pdf["label"] == 1]
        return float(pos["value"].mean()) if len(pos) else 0.0

    def group_truths(self) -> np.ndarray:
        """Per-group μ for group-by surrogates."""
        out = np.zeros(self.n_groups)
        for g in range(self.n_groups):
            sel = self.pdf[self.pdf["group"] == g]
            out[g] = float(sel["value"].mean()) if len(sel) else 0.0
        return out

    def strata(self, k: int, proxy_col: str = "proxy") -> list[tuple[np.ndarray, np.ndarray]]:
        """K proxy-quantile strata as (values, labels) numpy pairs."""
        return strata_arrays(
            self.pdf[proxy_col].to_numpy(),
            self.pdf["value"].to_numpy(),
            self.pdf["label"].to_numpy(),
            k,
            ids=self.pdf["id"].to_numpy(),
        )

    def population(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, labels) for the whole dataset — uniform baseline input."""
        return self.pdf["value"].to_numpy(dtype=float), self.pdf["label"].to_numpy()


def _n(name: str, scale: float) -> int:
    return max(2_000, int(PAPER_SIZES[name] * scale))


def _base_frame(
    n: int,
    positive_rate: float,
    proxy_noise: float,
    rng: np.random.Generator,
    latent_scale: float = 1.5,
) -> tuple[pd.DataFrame, np.ndarray]:
    """Common latent-logit construction: returns (frame, latent).

    ``latent_scale`` controls how separable positives are: large values
    concentrate the positives into the top proxy strata (a sharp
    proxy), which is where stratified sampling gains the most (§4.2's
    K-fold example); small values give a diffuse, weak proxy.
    """
    latent = rng.normal(0.0, latent_scale, n)
    b = calibrate_intercept(latent, positive_rate)
    label = labels_from_latent(latent, b, rng)
    proxy = noisy_proxy(latent, b, proxy_noise, rng)
    pdf = pd.DataFrame(
        {"id": np.arange(n, dtype=np.int64), "proxy": proxy, "label": label}
    )
    return pdf, latent


# ---------------------------------------------------------------------------
# The six Table-2 surrogates
# ---------------------------------------------------------------------------

def night_street(*, scale: float = 0.02, seed: int = 101) -> Dataset:
    """night-street (jackson): AVG(count_cars) WHERE count_cars > 0.

    Mask R-CNN oracle, TASTI proxy (good). Statistic = car count ≥ 1
    among positives, correlated with the latent (busier frames score
    higher on the proxy).
    """
    rng = np.random.default_rng(seed)
    n = _n("night_street", scale)
    pdf, latent = _base_frame(
        n, positive_rate=0.05, proxy_noise=0.2, rng=rng, latent_scale=3.0
    )
    lam = 0.3 + 4.0 * sigmoid(latent)
    count = 1 + rng.poisson(lam)
    pdf["value"] = np.where(pdf["label"] == 1, count, 0).astype(float)
    return Dataset("night_street", pdf)


def taipei(*, scale: float = 0.02, seed: int = 102) -> Dataset:
    """taipei: same query as night-street over a busier intersection
    (higher positive rate, higher car counts)."""
    rng = np.random.default_rng(seed)
    n = _n("taipei", scale)
    pdf, latent = _base_frame(
        n, positive_rate=0.15, proxy_noise=0.3, rng=rng, latent_scale=3.0
    )
    lam = 1.0 + 4.0 * sigmoid(latent)
    count = 1 + rng.poisson(lam)
    pdf["value"] = np.where(pdf["label"] == 1, count, 0).astype(float)
    return Dataset("taipei", pdf)


def celeba(*, scale: float = 0.02, seed: int = 103) -> Dataset:
    """celeba: PERCENTAGE(is_smiling) WHERE hair = blonde.

    Human-label oracle, specialized MobileNetV2 proxy. Statistic is
    binary (smiling) so PERCENTAGE == 100·AVG; we keep the 0/1 value
    and report the fraction. Blonde rate ≈ 15% as in CelebA.
    """
    rng = np.random.default_rng(seed)
    n = _n("celeba", scale)
    pdf, latent = _base_frame(
        n, positive_rate=0.15, proxy_noise=0.3, rng=rng, latent_scale=3.0
    )
    p_smile = sigmoid(0.25 + 0.2 * latent)  # smiling correlates with the latent
    pdf["value"] = (rng.random(n) < p_smile).astype(float)
    return Dataset("celeba", pdf)


def amazon_posters(*, scale: float = 0.02, seed: int = 104) -> Dataset:
    """Amazon movie posters: AVG(rating) WHERE face ∧ female.

    MT-CNN + VGGFace oracle, MobileNetV2 proxy. Rating in 1..5, skewed
    high as in Amazon reviews.
    """
    rng = np.random.default_rng(seed)
    n = _n("amazon_posters", scale)
    pdf, latent = _base_frame(
        n, positive_rate=0.10, proxy_noise=0.8, rng=rng, latent_scale=2.5
    )
    # Rating mean drifts mildly with the latent (posters with clearer
    # faces skew toward certain genres/ratings).
    mean_rating = 3.2 + 1.4 * sigmoid(latent)
    pdf["value"] = np.clip(np.round(rng.normal(mean_rating, 1.0)), 1.0, 5.0)
    return Dataset("amazon_posters", pdf)


def trec05p(*, scale: float = 0.02, seed: int = 105) -> Dataset:
    """trec05p (SPAM25): AVG(nb_links) WHERE is_spam.

    Human-label oracle, weak keyword proxy (high noise). Link counts
    are heavy-tailed and much larger for spam.
    """
    rng = np.random.default_rng(seed)
    n = _n("trec05p", scale)
    pdf, latent = _base_frame(
        n, positive_rate=0.25, proxy_noise=1.5, rng=rng, latent_scale=2.0
    )
    links_spam = rng.poisson(6.0 + 6.0 * sigmoid(latent))
    links_ham = rng.poisson(1.0, n)
    pdf["value"] = np.where(pdf["label"] == 1, links_spam, links_ham).astype(float)
    return Dataset("trec05p", pdf)


def amazon_office(*, scale: float = 0.02, seed: int = 106) -> Dataset:
    """Amazon office supplies: AVG(rating) WHERE sentiment = strongly
    positive. BERT oracle, NLTK/VADER rule proxy (weak). Ratings among
    strongly-positive reviews concentrate at 5.
    """
    rng = np.random.default_rng(seed)
    n = _n("amazon_office", scale)
    pdf, latent = _base_frame(
        n, positive_rate=0.20, proxy_noise=0.8, rng=rng, latent_scale=2.5
    )
    # Ratings are high and near-independent of the sentiment latent
    # (strongly-positive reviews rate 4–5 regardless of how confident
    # the rule-based proxy is), so ABAE's gain here comes from the p_k
    # concentration alone — the weakest-proxy dataset, as in the paper.
    pdf["value"] = np.clip(np.round(rng.normal(4.2, 0.9, n)), 1.0, 5.0)
    return Dataset("amazon_office", pdf)


_REAL = {
    "night_street": night_street,
    "taipei": taipei,
    "celeba": celeba,
    "amazon_posters": amazon_posters,
    "trec05p": trec05p,
    "amazon_office": amazon_office,
}


def load(name: str, *, scale: float = 0.02) -> Dataset:
    """Load a Table-2 surrogate by name at the given scale."""
    return _REAL[name](scale=scale)


# ---------------------------------------------------------------------------
# Multi-predicate datasets (Fig. 6)
# ---------------------------------------------------------------------------

#: Fig. 6's query predicate, O_0(x) ∧ O_1(x).
_BOTH = And(Pred("0"), Pred("1"))


def _both(pdf: pd.DataFrame, prefix: str) -> np.ndarray:
    """:data:`_BOTH` evaluated over ``<prefix>_0`` and ``<prefix>_1``:
    the product score of the proxies, the conjunction of the labels."""
    return _BOTH.evaluate({j: pdf[f"{prefix}_{j}"].to_numpy() for j in "01"})


def night_street_multipred(*, scale: float = 0.02, seed: int = 201) -> Dataset:
    """night-street with a second predicate: cars>0 AND red_light.

    Joint positive rate ≈ 0.17 as reported in §5.2; the two predicates
    are independent with a proxy each (``proxy_0``: cars, ``proxy_1``:
    red light, from an embedding index).
    """
    rng = np.random.default_rng(seed)
    n = _n("night_street", scale)
    pdf, latent_a = _base_frame(
        n, positive_rate=0.40, proxy_noise=0.3, rng=rng, latent_scale=2.5
    )
    pdf = pdf.rename(columns={"proxy": "proxy_0", "label": "label_0"})
    latent_b = rng.normal(0.0, 2.5, n)
    b2 = calibrate_intercept(latent_b, 0.425)
    pdf["label_1"] = labels_from_latent(latent_b, b2, rng)
    pdf["proxy_1"] = noisy_proxy(latent_b, b2, 0.4, rng)
    pdf["label"] = _both(pdf, "label")
    lam = 0.4 + 2.2 * sigmoid(latent_a)
    pdf["value"] = np.where(pdf["label_0"] == 1, 1 + rng.poisson(lam), 0).astype(float)
    pdf["proxy"] = _both(pdf, "proxy")  # the ∧-combined score
    return Dataset(
        "night_street_multipred", pdf, proxy_cols=("proxy", "proxy_0", "proxy_1")
    )


def synthetic_multipred(*, n: int = 50_000, k: int = 5, seed: int = 202) -> Dataset:
    """Fig. 6's synthetic set: five strata, two predicates; per-proxy
    stratum positive rates drawn from a Beta distribution.

    Each predicate has its *own* latent 5-level stratum structure (so
    neither single proxy captures the conjunction by itself) and its
    proxy reports the stratum's p — a calibrated proxy, making the
    product rule's combined score the exact joint probability.
    """
    rng = np.random.default_rng(seed)
    pdf = pd.DataFrame({"id": np.arange(n, dtype=np.int64)})
    strat = []
    for j in range(2):
        stratum = rng.integers(0, k, n)
        strat.append(stratum)
        p_k = np.sort(rng.beta(0.6, 3.0, k))
        probs = p_k[stratum]
        pdf[f"label_{j}"] = (rng.random(n) < probs).astype(np.int64)
        pdf[f"proxy_{j}"] = np.clip(probs + rng.normal(0, 0.02, n), 0.0, 1.0)
    pdf["label"] = _both(pdf, "label")
    mu_k = rng.normal(5.0, 2.0, k)
    pdf["value"] = rng.normal(mu_k[strat[0]], 1.0)
    pdf["proxy"] = _both(pdf, "proxy")
    return Dataset("synthetic_multipred", pdf, proxy_cols=("proxy", "proxy_0", "proxy_1"))


# ---------------------------------------------------------------------------
# Group-by datasets (Figs. 7–8)
# ---------------------------------------------------------------------------

def _groupby_from_scores(
    scores: np.ndarray, rng: np.random.Generator, values: np.ndarray
) -> pd.DataFrame:
    """Assign disjoint groups: candidate g fires ~ Bern(scores[:, g]);
    ties broken uniformly; no candidate → group −1 (matches "predicate
    generated as a Bernoulli with the proxy probability")."""
    n, g = scores.shape
    fired = rng.random((n, g)) < scores
    group = np.full(n, -1, dtype=np.int64)
    n_fired = fired.sum(axis=1)
    rows = np.where(n_fired > 0)[0]
    for i in rows:
        cands = np.where(fired[i])[0]
        group[i] = cands[rng.integers(0, cands.size)] if cands.size > 1 else cands[0]
    pdf = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "group": group, "value": values})
    for j in range(g):
        pdf[f"proxy_{j}"] = scores[:, j]
    pdf["label"] = (group >= 0).astype(np.int64)
    return pdf


def celeba_groupby(*, scale: float = 0.02, seed: int = 301) -> Dataset:
    """celeba group-by: PERCENTAGE(smiling) GROUP BY hair ∈ {gray, blond}.

    Gray ≈ 4%, blond ≈ 15% (CelebA attribute rates); per-group
    MobileNet-grade proxies.
    """
    rng = np.random.default_rng(seed)
    n = _n("celeba", scale)
    rates = (0.04, 0.15)
    lat = rng.normal(0.0, 3.0, (n, 2))
    scores = np.column_stack(
        [
            sigmoid(lat[:, j] + calibrate_intercept(lat[:, j], rates[j]))
            for j in range(2)
        ]
    )
    values = (rng.random(n) < 0.5).astype(float)
    pdf = _groupby_from_scores(scores, rng, values)
    # Observed proxies: noisy views of the membership probability
    # (specialized MobileNetV2-grade, so fairly sharp).
    for j in range(2):
        pdf[f"proxy_{j}"] = sigmoid(
            np.log(scores[:, j] / (1 - scores[:, j])) + rng.normal(0, 0.3, n)
        )
    return Dataset("celeba_groupby", pdf, proxy_cols=("proxy_0", "proxy_1"), n_groups=2)


def _synthetic_groupby(
    name: str, n: int, seed: int, rates: tuple, beta_a: float, mus: tuple, sd: float
) -> Dataset:
    """Figs. 7–8 synthetic sets: group g's proxy is a Beta(a, a(1−r_g)/r_g)
    score (mean r_g), membership is Bernoulli with the proxy as the
    probability, and the statistic is N(0, sd) shifted by the group's
    mean."""
    rng = np.random.default_rng(seed)
    scores = np.column_stack(
        [np.clip(rng.beta(beta_a, beta_a * (1 - r) / r, n), 1e-4, 1 - 1e-4) for r in rates]
    )
    base = rng.normal(0.0, sd, n)
    pdf = _groupby_from_scores(scores, rng, base)
    shift = np.zeros(n)
    m = pdf["group"].to_numpy() >= 0
    shift[m] = np.asarray(mus)[pdf["group"].to_numpy()[m]]
    pdf["value"] = base + shift
    return Dataset(
        name,
        pdf,
        proxy_cols=tuple(f"proxy_{j}" for j in range(len(rates))),
        n_groups=len(rates),
    )


def synthetic_groupby_single(*, n: int = 100_000, seed: int = 302) -> Dataset:
    """Fig. 7 synthetic set: 4 groups with positive rates 3.3%, 3.3%,
    3.4%, 3.5%; normal statistic; Bernoulli predicate with the proxy as
    the probability (single group-key oracle).

    The very sharp Beta (a = 0.05) piles scores up near 0 with a small
    mass near 1, i.e. a near-perfectly-separating calibrated proxy — the
    regime the paper's "Bernoulli with the proxy probability"
    construction targets.
    """
    return _synthetic_groupby(
        "synthetic_groupby_single",
        n,
        seed,
        rates=(0.033, 0.033, 0.034, 0.035),
        beta_a=0.05,
        mus=(10.0, 12.0, 8.0, 11.0),
        sd=2.0,
    )


def synthetic_groupby_multi(*, n: int = 100_000, seed: int = 303) -> Dataset:
    """Fig. 8 synthetic set: 4 groups with positive rates 16%, 12%, 9%,
    5% (one oracle per group)."""
    return _synthetic_groupby(
        "synthetic_groupby_multi",
        n,
        seed,
        rates=(0.16, 0.12, 0.09, 0.05),
        beta_a=0.5,
        mus=(5.0, 7.0, 3.0, 9.0),
        sd=1.5,
    )


# ---------------------------------------------------------------------------
# Proxy-combination datasets (Fig. 12)
# ---------------------------------------------------------------------------

def trec05p_proxies(*, scale: float = 0.02, seed: int = 401, n_proxies: int = 4) -> Dataset:
    """trec05p with several keyword proxies of varying quality (e.g.
    "money", "$", "please") plus one uninformative proxy; Fig. 12 shows
    logistic combination beats any single proxy and ignores junk."""
    rng = np.random.default_rng(seed)
    ds = trec05p(scale=scale, seed=seed + 1)
    pdf = ds.pdf
    n = len(pdf)
    latent = np.log(pdf["proxy"] / (1 - pdf["proxy"]))  # recover a latent view
    # Comparable-quality keyword rules: no single keyword dominates, so
    # the logistic merge (which averages their noise and zeroes the
    # junk one) beats each individually — the Fig. 12 regime.
    noises = [2.0, 2.0, 2.0]
    cols = []
    for j, s in enumerate(noises[: n_proxies - 1]):
        pdf[f"proxy_{j}"] = sigmoid(latent + rng.normal(0, s, n))
        cols.append(f"proxy_{j}")
    pdf[f"proxy_{n_proxies - 1}"] = rng.random(n)  # junk proxy
    cols.append(f"proxy_{n_proxies - 1}")
    return Dataset("trec05p_proxies", pdf, proxy_cols=tuple(["proxy"] + cols))


def synthetic_combine(*, n: int = 50_000, seed: int = 402, n_proxies: int = 4) -> Dataset:
    """Fig. 12 synthetic set: labels ~ Bernoulli(q); each proxy is q
    plus noise of varying scale (last one pure noise)."""
    rng = np.random.default_rng(seed)
    q = rng.beta(1.0, 3.0, n)
    label = (rng.random(n) < q).astype(np.int64)
    pdf = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "label": label,
            "value": rng.normal(3.0 + 4.0 * q, 1.0),
        }
    )
    noises = [0.3, 0.3, 0.3]
    cols = []
    for j, s in enumerate(noises[: n_proxies - 1]):
        pdf[f"proxy_{j}"] = np.clip(q + rng.normal(0, s, n), 0.0, 1.0)
        cols.append(f"proxy_{j}")
    pdf[f"proxy_{n_proxies - 1}"] = rng.random(n)
    cols.append(f"proxy_{n_proxies - 1}")
    pdf["proxy"] = pdf["proxy_0"]
    return Dataset("synthetic_combine", pdf, proxy_cols=tuple(["proxy"] + cols))
