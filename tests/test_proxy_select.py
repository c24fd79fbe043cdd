"""Tests for core.proxy_select — Prop.-2-based proxy ranking and the
logistic proxy combination (§3.4, Fig. 12)."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.proxy_select import (
    combine_proxies,
    combined_proxy_trial,
    estimate_proxy_mse,
    select_proxy,
)
from repro.core.sampler import abae_trial
from repro.core.stratify import strata_arrays
from repro.experiments.metrics import rmse
from repro.simulate import datasets as D
from repro.simulate.proxies import calibrate_intercept, labels_from_latent, noisy_proxy, sigmoid


def _pilot(n=4000, seed=0, noises=(0.2, 2.5)):
    """Pilot sample with a sharp and a blurry proxy for the same
    predicate, plus a junk proxy."""
    rng = np.random.default_rng(seed)
    latent = rng.normal(0, 2.5, n)
    b = calibrate_intercept(latent, 0.15)
    labels = labels_from_latent(latent, b, rng)
    values = np.where(labels == 1, rng.normal(5 + 2 * sigmoid(latent), 1.0), 0.0)
    scores = {
        "sharp": noisy_proxy(latent, b, noises[0], rng),
        "blurry": noisy_proxy(latent, b, noises[1], rng),
        "junk": rng.random(n),
    }
    return scores, values, labels


class TestEstimateProxyMse:
    def test_sharper_proxy_scores_lower_mse(self):
        scores, values, labels = _pilot()
        sharp = estimate_proxy_mse(scores["sharp"], values, labels)
        blurry = estimate_proxy_mse(scores["blurry"], values, labels)
        junk = estimate_proxy_mse(scores["junk"], values, labels)
        assert sharp < blurry <= junk * 1.05

    def test_scales_inversely_with_budget(self):
        scores, values, labels = _pilot()
        a = estimate_proxy_mse(scores["sharp"], values, labels, n_budget=1000)
        b = estimate_proxy_mse(scores["sharp"], values, labels, n_budget=4000)
        assert b == pytest.approx(a / 4)

    def test_predicts_relative_trial_performance(self):
        """§3.4: the Prop.-2 formula is a good predictor of *relative*
        performance — the proxy it prefers must indeed give lower
        RMSE when ABAE actually runs."""
        scores, values, labels = _pilot(n=8000, seed=1)
        truth = float(values[labels == 1].mean())
        results = {}
        for name in ("sharp", "blurry"):
            strata = strata_arrays(scores[name], values, labels, 5)
            ests = [
                abae_trial(strata, 800, np.random.default_rng(i)).estimate
                for i in range(150)
            ]
            results[name] = rmse(ests, truth)
        assert results["sharp"] < results["blurry"]


class TestSelectProxy:
    def test_picks_sharp(self):
        scores, values, labels = _pilot()
        choice = select_proxy(scores, values, labels)
        assert choice.best == "sharp"
        assert set(choice.predicted_mse) == {"sharp", "blurry", "junk"}

    def test_single_candidate(self):
        scores, values, labels = _pilot()
        assert select_proxy({"only": scores["sharp"]}, values, labels).best == "only"

    def test_degenerate_pilot_falls_back_to_first(self):
        values = np.zeros(100)
        labels = np.zeros(100, dtype=int)
        choice = select_proxy(
            {"a": np.random.default_rng(0).random(100), "b": np.zeros(100)},
            values,
            labels,
        )
        assert choice.best == "a"


class TestCombineProxies:
    def test_combined_scores_shape_and_bounds(self):
        scores, values, labels = _pilot()
        cp = combine_proxies(scores, labels)
        out = cp.score(scores)
        assert out.shape == labels.shape
        assert np.all((out >= 0) & (out <= 1))

    def test_junk_proxy_downweighted(self):
        scores, _, labels = _pilot(n=8000, seed=2)
        cp = combine_proxies(scores, labels)
        w = dict(zip(cp.proxy_names, cp.model.weights))
        assert abs(w["junk"]) < abs(w["sharp"])

    def test_combined_at_least_as_good_as_best_single_auc_proxy(self):
        """Combined scores should order positives above negatives at
        least as well as the sharp proxy (rank correlation check)."""
        scores, _, labels = _pilot(n=8000, seed=3)
        cp = combine_proxies(scores, labels)
        merged = cp.score(scores)

        def auc(s):
            order = np.argsort(s)
            ranks = np.empty_like(order, dtype=float)
            ranks[order] = np.arange(s.size)
            pos = ranks[labels == 1]
            n1, n0 = pos.size, s.size - pos.size
            return (pos.sum() - n1 * (n1 - 1) / 2) / (n1 * n0)

        assert auc(merged) >= auc(scores["sharp"]) - 0.02


class TestCombinedProxyTrial:
    def test_budget_respected(self):
        """Total oracle spend ≤ N, and every call is one labeled sample."""
        scores, values, labels = _pilot()
        for n_budget, seed in itertools.product((50, 101, 600, 1003, 2999), range(5)):
            res = combined_proxy_trial(
                scores, values, labels, n_budget, np.random.default_rng(seed)
            )
            assert np.isfinite(res.estimate)
            assert res.oracle_calls <= n_budget
            assert res.oracle_calls == sum(v.size for v, _ in res.samples)

    def test_pilot_over_budget_rejected(self):
        """The pilot holds at least 50 records, so N = 40 cannot pay for it."""
        scores, values, labels = _pilot()
        with pytest.raises(ValueError):
            combined_proxy_trial(scores, values, labels, 40, np.random.default_rng(0))

    def test_unbiased_on_average(self):
        scores, values, labels = _pilot(n=8000, seed=4)
        truth = float(values[labels == 1].mean())
        ests = [
            combined_proxy_trial(scores, values, labels, 1000, np.random.default_rng(i)).estimate
            for i in range(120)
        ]
        assert np.mean(ests) == pytest.approx(truth, abs=0.12)

    def test_fig12_ordering_on_synthetic_combine(self):
        """Fig. 12: combined ≤ best-single and ≤ uniform in RMSE on the
        synthetic proxy-combination dataset."""
        ds = D.synthetic_combine(n=20000)
        truth = ds.ground_truth()
        pdf = ds.pdf
        score_cols = [c for c in ds.proxy_cols if c != "proxy"]
        scores = {c: pdf[c].to_numpy(float) for c in score_cols}
        vals = pdf["value"].to_numpy(float)
        labs = pdf["label"].to_numpy()
        ec = [
            combined_proxy_trial(scores, vals, labs, 1000, np.random.default_rng(i)).estimate
            for i in range(120)
        ]
        s1 = ds.strata(5, score_cols[0])
        e1 = [
            abae_trial(s1, 1000, np.random.default_rng(i)).estimate for i in range(120)
        ]
        assert rmse(ec, truth) <= rmse(e1, truth) * 1.1
