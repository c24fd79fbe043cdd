"""Tests for core.bootstrap — Algorithm 2's percentile CIs."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.bootstrap import bootstrap_ci, bootstrap_replicates
from repro.core.sampler import abae_trial


def _reference_bootstrap(samples, rng, n_boot):
    """Direct, unvectorized transcription of Algorithm 2 for parity."""
    out = np.zeros(n_boot)
    for b in range(n_boot):
        num = den = 0.0
        for vals, labs in samples:
            m = vals.size
            if m == 0:
                continue
            idx = rng.integers(0, m, m)
            v, l = np.asarray(vals, float)[idx], np.asarray(labs)[idx]
            pos = v[l == 1]
            p_star = pos.size / m
            mu_star = pos.mean() if pos.size else 0.0
            num += p_star * mu_star
            den += p_star
        out[b] = num / den if den > 0 else 0.0
    return out


class TestReplicates:
    def test_matches_reference_distribution(self, toy_strata):
        res = abae_trial(toy_strata, 400, np.random.default_rng(0))
        vec = bootstrap_replicates(res.samples, np.random.default_rng(1), n_boot=3000)
        ref = _reference_bootstrap(res.samples, np.random.default_rng(2), 3000)
        # Same distribution (different RNG streams): compare moments.
        assert vec.mean() == pytest.approx(ref.mean(), abs=4 * ref.std() / np.sqrt(3000))
        assert vec.std() == pytest.approx(ref.std(), rel=0.2)

    def test_shape(self, toy_strata):
        res = abae_trial(toy_strata, 300, np.random.default_rng(0))
        assert bootstrap_replicates(res.samples, np.random.default_rng(0), n_boot=17).shape == (17,)

    def test_centered_near_estimate(self, toy_strata):
        res = abae_trial(toy_strata, 500, np.random.default_rng(3))
        reps = bootstrap_replicates(res.samples, np.random.default_rng(4), n_boot=2000)
        assert reps.mean() == pytest.approx(res.estimate, abs=0.2)

    def test_empty_stratum_skipped(self):
        samples = [
            (np.array([]), np.array([])),
            (np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1])),
        ]
        reps = bootstrap_replicates(samples, np.random.default_rng(0), n_boot=100)
        assert np.all(np.isfinite(reps))

    def test_all_negative_samples_give_zero(self):
        samples = [(np.ones(10), np.zeros(10, dtype=int))]
        reps = bootstrap_replicates(samples, np.random.default_rng(0), n_boot=50)
        np.testing.assert_array_equal(reps, 0.0)

    def test_percentiles_match_reference(self, toy_strata):
        """The CI's 2.5/50/97.5 % points match Algorithm 2 transcribed
        directly, within a quarter of the replicates' std (about four
        standard errors of a 2.5 % point at B = 4000)."""
        res = abae_trial(toy_strata, 400, np.random.default_rng(10))
        vec = bootstrap_replicates(res.samples, np.random.default_rng(11), n_boot=4000)
        ref = _reference_bootstrap(res.samples, np.random.default_rng(12), 4000)
        np.testing.assert_allclose(
            np.percentile(vec, [2.5, 50, 97.5]),
            np.percentile(ref, [2.5, 50, 97.5]),
            rtol=0,
            atol=0.25 * ref.std(),
        )

    def test_boolean_labels(self, toy_strata):
        res = abae_trial(toy_strata, 400, np.random.default_rng(13))
        as_bool = [(v, l.astype(bool)) for v, l in res.samples]
        np.testing.assert_array_equal(
            bootstrap_replicates(as_bool, np.random.default_rng(14), n_boot=200),
            bootstrap_replicates(res.samples, np.random.default_rng(14), n_boot=200),
        )

    def test_all_positive_stratum(self):
        """Every resample keeps p̂* = 1, so a replicate is the mean of m
        values drawn with replacement: std σ/√m."""
        vals = np.random.default_rng(15).normal(3.0, 2.0, 400)
        reps = bootstrap_replicates(
            [(vals, np.ones(400, dtype=int))], np.random.default_rng(16), n_boot=4000
        )
        assert reps.mean() == pytest.approx(vals.mean(), abs=4 * vals.std() / np.sqrt(400 * 4000))
        assert reps.std() == pytest.approx(vals.std() / np.sqrt(400), rel=0.1)

    def test_stratum_without_positives_adds_nothing(self, toy_strata):
        res = abae_trial(toy_strata, 400, np.random.default_rng(17))
        negatives = (np.arange(30.0), np.zeros(30, dtype=int))
        np.testing.assert_array_equal(
            bootstrap_replicates([*res.samples, negatives], np.random.default_rng(18), n_boot=300),
            bootstrap_replicates(res.samples, np.random.default_rng(18), n_boot=300),
        )

    def test_single_draw_strata(self):
        """m_k = 1: a resample is the draw itself, in every replicate."""
        samples = [
            (np.array([5.0]), np.array([1])),
            (np.array([3.0]), np.array([0])),
            (np.array([2.0]), np.array([1])),
        ]
        reps = bootstrap_replicates(samples, np.random.default_rng(0), n_boot=100)
        np.testing.assert_array_equal(reps, 3.5)


class TestCI:
    @pytest.mark.parametrize(
        "n_boot, alpha",
        [(0, 0.05), (-1, 0.05), (100, 0.0), (100, 1.0), (100, 1.5), (100, -0.1), (100, float("nan"))],
    )
    def test_bad_settings_rejected(self, toy_strata, n_boot, alpha):
        """No replicates (``ends[-1]`` of an empty array before) or an
        alpha outside (0, 1) (an inverted interval before) is an error."""
        res = abae_trial(toy_strata, 400, np.random.default_rng(5))
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_ci(res.samples, np.random.default_rng(6), n_boot=n_boot, alpha=alpha)

    def test_one_replicate_is_a_point(self, toy_strata):
        res = abae_trial(toy_strata, 400, np.random.default_rng(5))
        lo, hi = bootstrap_ci(res.samples, np.random.default_rng(6), n_boot=1, alpha=0.5)
        assert lo == hi

    def test_ordered_bounds(self, toy_strata):
        res = abae_trial(toy_strata, 400, np.random.default_rng(5))
        lo, hi = bootstrap_ci(res.samples, np.random.default_rng(6), n_boot=500)
        assert lo <= hi

    def test_narrows_with_more_samples(self, toy_strata):
        widths = []
        for n in (200, 2000):
            res = abae_trial(toy_strata, n, np.random.default_rng(7))
            lo, hi = bootstrap_ci(res.samples, np.random.default_rng(8), n_boot=500)
            widths.append(hi - lo)
        assert widths[1] < widths[0]

    def test_alpha_monotone(self, toy_strata):
        res = abae_trial(toy_strata, 500, np.random.default_rng(9))
        lo1, hi1 = bootstrap_ci(res.samples, np.random.default_rng(1), n_boot=2000, alpha=0.05)
        lo2, hi2 = bootstrap_ci(res.samples, np.random.default_rng(1), n_boot=2000, alpha=0.5)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_nominal_coverage(self, toy_strata):
        """Fig. 5: the 95% bootstrap CI must cover the truth at roughly
        the nominal rate (checked loosely with 150 trials)."""
        vals = np.concatenate([v for v, _ in toy_strata])
        labs = np.concatenate([l for _, l in toy_strata])
        truth = float(vals[labs == 1].mean())
        hits = 0
        trials = 150
        for i in range(trials):
            rng = np.random.default_rng(1000 + i)
            res = abae_trial(toy_strata, 600, rng)
            lo, hi = bootstrap_ci(res.samples, rng, n_boot=400)
            hits += lo <= truth <= hi
        assert hits / trials >= 0.85
