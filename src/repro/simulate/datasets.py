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

:data:`TABLE2` holds the six Table-2 datasets, built by :func:`load`.
Seeds are fixed there and in each synthetic set's builder, not set per
call, so the DuckDB oracle sees identical input. Every builder returns a
:class:`Dataset` that can materialize a Spark DataFrame, per-stratum
numpy arrays for the Monte-Carlo kernels, and the exhaustive ground
truth.
"""
from __future__ import annotations

from collections.abc import Callable
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


# ---------------------------------------------------------------------------
# The six Table-2 surrogates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table2Entry:
    """One Table-2 dataset. The first four fields are the paper's
    columns: record count, predicate, oracle and proxy. The rest draw
    its surrogate: the seed, the predicate's positive rate (met in
    expectation), the std of the proxy's logit noise and of the latent
    logit (see :func:`_base_frame`), and the statistic f(x) of (latent,
    label, rng), drawn after the label and the proxy. The surrogate at
    ``scale`` has max(2,000, ⌊paper_size·scale⌋) rows."""

    paper_size: int
    predicate: str
    paper_oracle: str
    paper_proxy: str
    seed: int
    positive_rate: float
    proxy_noise: float
    latent_scale: float
    statistic: Callable[[np.ndarray, np.ndarray, np.random.Generator], np.ndarray]


def _cars(base: float):
    """AVG(count_cars) WHERE count_cars > 0: a car count ≥ 1 among
    positives, higher in busier frames, which score higher on the proxy."""
    return lambda lat, label, rng: np.where(
        label == 1, 1 + rng.poisson(base + 4.0 * sigmoid(lat)), 0
    ).astype(float)


#: The paper's Table 2, by dataset name.
TABLE2 = {
    # night-street (jackson), good TASTI proxy.
    "night_street": Table2Entry(
        973_136, "At least one car", "Mask R-CNN", "TASTI",
        seed=101, positive_rate=0.05, proxy_noise=0.2, latent_scale=3.0, statistic=_cars(0.3),
    ),
    # The same query over a busier intersection: a higher positive rate
    # and higher car counts.
    "taipei": Table2Entry(
        1_187_850, "At least one car", "Mask R-CNN", "TASTI",
        seed=102, positive_rate=0.15, proxy_noise=0.3, latent_scale=3.0, statistic=_cars(1.0),
    ),
    # PERCENTAGE(is_smiling) WHERE hair = blonde (100·AVG of the 0/1
    # value); blonde rate ≈ 15 % as in CelebA. Smiling correlates with
    # the latent.
    "celeba": Table2Entry(
        202_599, "Blonde hair", "Human labels", "MobileNetV2",
        seed=103, positive_rate=0.15, proxy_noise=0.3, latent_scale=3.0,
        statistic=lambda lat, label, rng: (
            rng.random(lat.shape) < sigmoid(0.25 + 0.2 * lat)
        ).astype(float),
    ),
    # AVG(rating) WHERE face ∧ female: 1..5, skewed high as in Amazon
    # reviews. The mean drifts mildly with the latent (posters with
    # clearer faces skew toward certain genres/ratings).
    "amazon_posters": Table2Entry(
        35_815, "Contains woman", "MT-CNN+VGGFace", "MobileNetV2",
        seed=104, positive_rate=0.10, proxy_noise=0.8, latent_scale=2.5,
        statistic=lambda lat, label, rng: np.clip(
            np.round(rng.normal(3.2 + 1.4 * sigmoid(lat), 1.0)), 1.0, 5.0
        ),
    ),
    # AVG(nb_links) WHERE is_spam, weak keyword proxy (high noise). Link
    # counts are heavy-tailed and much larger for spam; the spam counts
    # are drawn before the ham counts.
    "trec05p": Table2Entry(
        52_578, "Is spam", "Human labels", "Keyword-based",
        seed=105, positive_rate=0.25, proxy_noise=1.5, latent_scale=2.0,
        statistic=lambda lat, label, rng: np.where(
            label == 1, rng.poisson(6.0 + 6.0 * sigmoid(lat)), rng.poisson(1.0, lat.shape)
        ).astype(float),
    ),
    # AVG(rating) WHERE sentiment = strongly positive. Ratings are high
    # and near-independent of the sentiment latent (strongly-positive
    # reviews rate 4–5 regardless of how confident the rule-based proxy
    # is), so ABAE's gain here comes from the p_k concentration alone —
    # the weakest-proxy dataset, as in the paper.
    "amazon_office": Table2Entry(
        800_144, "Strong positive sentiment", "FlairNLP BERT", "NLTK",
        seed=106, positive_rate=0.20, proxy_noise=0.8, latent_scale=2.5,
        statistic=lambda lat, label, rng: np.clip(
            np.round(rng.normal(4.2, 0.9, lat.shape)), 1.0, 5.0
        ),
    ),
}

#: The six real-world surrogates evaluated in Figs. 2–5, 9–11.
REAL_WORLD = tuple(TABLE2)


def _n(name: str, scale: float) -> int:
    return max(2_000, int(TABLE2[name].paper_size * scale))


def _base_frame(
    n: int, positive_rate: float, proxy_noise: float, rng: np.random.Generator, latent_scale: float
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


def _table2(name: str, scale: float, seed: int) -> Dataset:
    """The :data:`TABLE2` surrogate ``name`` at ``scale``, drawn from ``seed``."""
    entry = TABLE2[name]
    rng = np.random.default_rng(seed)
    pdf, latent = _base_frame(
        _n(name, scale), entry.positive_rate, entry.proxy_noise, rng, entry.latent_scale
    )
    pdf["value"] = entry.statistic(latent, pdf["label"].to_numpy(), rng)
    return Dataset(name, pdf)


def load(name: str, *, scale: float = 0.02) -> Dataset:
    """Load a Table-2 surrogate by name at the given scale."""
    return _table2(name, scale, TABLE2[name].seed)


# ---------------------------------------------------------------------------
# Multi-predicate datasets (Fig. 6)
# ---------------------------------------------------------------------------

#: Fig. 6's query predicate, O_0(x) ∧ O_1(x).
_BOTH = And(Pred("0"), Pred("1"))


def _both(pdf: pd.DataFrame, prefix: str) -> np.ndarray:
    """:data:`_BOTH` evaluated over ``<prefix>_0`` and ``<prefix>_1``:
    the product score of the proxies, the conjunction of the labels."""
    return _BOTH.evaluate({j: pdf[f"{prefix}_{j}"].to_numpy() for j in "01"})


def night_street_multipred(*, scale: float = 0.02) -> Dataset:
    """night-street with a second predicate: cars>0 AND red_light.

    Joint positive rate ≈ 0.17 as reported in §5.2; the two predicates
    are independent with a proxy each (``proxy_0``: cars, ``proxy_1``:
    red light, from an embedding index).
    """
    rng = np.random.default_rng(201)
    n = _n("night_street", scale)
    pdf, latent_a = _base_frame(n, positive_rate=0.40, proxy_noise=0.3, rng=rng, latent_scale=2.5)
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


def synthetic_multipred(*, n: int = 50_000) -> Dataset:
    """Fig. 6's synthetic set: five strata, two predicates; per-proxy
    stratum positive rates drawn from a Beta distribution.

    Each predicate has its *own* latent 5-level stratum structure (so
    neither single proxy captures the conjunction by itself) and its
    proxy reports the stratum's p — a calibrated proxy, making the
    product rule's combined score the exact joint probability.
    """
    rng = np.random.default_rng(202)
    k = 5
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
    generated as a Bernoulli with the proxy probability"). A row where
    c > 1 fired takes the r-th of them, r ~ U{0, …, c − 1}, drawn in row
    order."""
    n, g = scores.shape
    fired = rng.random((n, g)) < scores
    n_fired = fired.sum(axis=1)
    r = np.zeros(n, dtype=np.int64)
    tied = n_fired > 1
    r[tied] = rng.integers(0, n_fired[tied])
    chosen = np.argmax(fired.cumsum(axis=1) > r[:, None], axis=1)
    group = np.where(n_fired > 0, chosen, -1).astype(np.int64)
    pdf = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "group": group, "value": values})
    for j in range(g):
        pdf[f"proxy_{j}"] = scores[:, j]
    pdf["label"] = (group >= 0).astype(np.int64)
    return pdf


def celeba_groupby(*, scale: float = 0.02) -> Dataset:
    """celeba group-by: PERCENTAGE(smiling) GROUP BY hair ∈ {gray, blond}.

    Gray ≈ 4%, blond ≈ 15% (CelebA attribute rates); per-group
    MobileNet-grade proxies.
    """
    rng = np.random.default_rng(301)
    n = _n("celeba", scale)
    rates = (0.04, 0.15)
    lat = rng.normal(0.0, 3.0, (n, 2))
    scores = np.column_stack(
        [sigmoid(lat[:, j] + calibrate_intercept(lat[:, j], rates[j])) for j in range(2)]
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
    group = pdf["group"].to_numpy()
    pdf["value"] = base + np.where(group >= 0, np.asarray(mus)[group], 0.0)
    return Dataset(
        name,
        pdf,
        proxy_cols=tuple(f"proxy_{j}" for j in range(len(rates))),
        n_groups=len(rates),
    )


def synthetic_groupby_single(*, n: int = 100_000) -> Dataset:
    """Fig. 7 synthetic set: 4 groups with positive rates 3.3%, 3.3%,
    3.4%, 3.5%; normal statistic; Bernoulli predicate with the proxy as
    the probability (single group-key oracle).

    The very sharp Beta (a = 0.05) piles scores up near 0 with a small
    mass near 1, i.e. a near-perfectly-separating calibrated proxy — the
    regime the paper's "Bernoulli with the proxy probability"
    construction targets.
    """
    return _synthetic_groupby(
        "synthetic_groupby_single", n, 302, rates=(0.033, 0.033, 0.034, 0.035), beta_a=0.05,
        mus=(10.0, 12.0, 8.0, 11.0), sd=2.0,
    )


def synthetic_groupby_multi(*, n: int = 100_000) -> Dataset:
    """Fig. 8 synthetic set: 4 groups with positive rates 16%, 12%, 9%,
    5% (one oracle per group)."""
    return _synthetic_groupby(
        "synthetic_groupby_multi", n, 303, rates=(0.16, 0.12, 0.09, 0.05), beta_a=0.5,
        mus=(5.0, 7.0, 3.0, 9.0), sd=1.5,
    )


# ---------------------------------------------------------------------------
# Proxy-combination datasets (Fig. 12)
# ---------------------------------------------------------------------------

#: Fig. 12's proxy columns: the summary ``proxy``, then the candidates.
_FIG12_PROXIES = ("proxy", "proxy_0", "proxy_1", "proxy_2", "proxy_3")


def _add_fig12_proxies(pdf: pd.DataFrame, view, sd: float, rng: np.random.Generator) -> None:
    """Add Fig. 12's candidates to ``pdf``: ``proxy_0..2`` are ``view``
    of N(0, sd) noise and ``proxy_3`` is uniform junk. The three views
    have comparable quality, so no single one dominates and the logistic
    merge (which averages their noise and zeroes the junk one) beats
    each individually — the Fig. 12 regime."""
    n = len(pdf)
    for j in range(3):
        pdf[f"proxy_{j}"] = view(rng.normal(0, sd, n))
    pdf["proxy_3"] = rng.random(n)


def trec05p_proxies(*, scale: float = 0.02) -> Dataset:
    """trec05p with several keyword proxies of varying quality (e.g.
    "money", "$", "please") plus one uninformative proxy; Fig. 12 shows
    logistic combination beats any single proxy and ignores junk."""
    pdf = _table2("trec05p", scale, seed=402).pdf
    latent = np.log(pdf["proxy"] / (1 - pdf["proxy"])).to_numpy()  # recover a latent view
    _add_fig12_proxies(pdf, lambda e: sigmoid(latent + e), 2.0, np.random.default_rng(401))
    return Dataset("trec05p_proxies", pdf, proxy_cols=_FIG12_PROXIES)


def synthetic_combine(*, n: int = 50_000) -> Dataset:
    """Fig. 12 synthetic set: labels ~ Bernoulli(q); three proxies are
    q plus N(0, 0.3) noise, the last one pure noise."""
    rng = np.random.default_rng(402)
    q = rng.beta(1.0, 3.0, n)
    label = (rng.random(n) < q).astype(np.int64)
    value = rng.normal(3.0 + 4.0 * q, 1.0)
    pdf = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "label": label, "value": value})
    _add_fig12_proxies(pdf, lambda e: np.clip(q + e, 0.0, 1.0), 0.3, rng)
    pdf["proxy"] = pdf["proxy_0"]
    return Dataset("synthetic_combine", pdf, proxy_cols=_FIG12_PROXIES)
