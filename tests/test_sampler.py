"""Tests for core.sampler — the two-stage ABAE kernel, baselines, and
their statistical behaviour (Theorem 4.1 shape, Prop. 2 agreement)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.allocation import optimal_allocation, optimal_mse
from repro.core.estimator import true_strata_params
from repro.core.sampler import (
    abae_trial,
    deterministic_draw_trial,
    prefix_draw,
    split_budget,
    uniform_trial,
)
from repro.experiments.metrics import rmse
from repro.simulate.oracles import BudgetExceededError, SimulatedOracle


class TestSplitBudget:
    def test_half_split(self):
        n1_per, n2 = split_budget(1000, 5, 0.5)
        assert n1_per == 100 and n2 == 500

    def test_budget_conserved(self):
        for n, k, c in [(1000, 5, 0.3), (777, 3, 0.5), (10000, 10, 0.7)]:
            n1_per, n2 = split_budget(n, k, c)
            assert n1_per * k + n2 == n

    def test_invalid_frac_raises(self):
        with pytest.raises(ValueError):
            split_budget(100, 5, 0.0)
        with pytest.raises(ValueError):
            split_budget(100, 5, 1.0)

    def test_tiny_budget_still_pilots(self):
        n1_per, _ = split_budget(4, 5, 0.5)
        assert n1_per == 1


class TestPrefixDraw:
    def test_stages_disjoint_within_stratum(self):
        strata = [(np.arange(n),) for n in (50, 200, 7)]
        draw = prefix_draw(strata, np.random.default_rng(0), 30)
        n1 = np.array([5, 5, 5])
        hi = np.array([30, 12, 7])
        stage1 = draw(np.zeros(3, dtype=np.int64), n1)
        stage2 = draw(n1, hi)
        for (s1,), (s2,), (ranks,), h in zip(stage1, stage2, strata, hi):
            both = np.concatenate([s1, s2])
            assert s1.size == 5 and both.size == h
            assert np.unique(both).size == both.size
            assert np.isin(both, ranks).all()

    def test_first_rank_uniform(self):
        """Chi-square test of the record at rank 1 over 20 records,
        4000 draws: below 43.82, the 0.999 quantile of χ²(19)."""
        n, reps = 20, 4000
        rng = np.random.default_rng(1)
        strata = [(np.arange(n),)]
        lo, hi = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        first = [prefix_draw(strata, rng, 3)(lo, hi)[0][0][0] for _ in range(reps)]
        counts = np.bincount(first, minlength=n)
        chi2 = ((counts - reps / n) ** 2 / (reps / n)).sum()
        assert chi2 < 43.82

    def test_draw_past_prefix_rejected(self):
        """Ranks beyond the drawn prefix of a larger stratum raise instead
        of coming back short; a stratum within the depth can be drawn to
        its end."""
        strata = [(np.arange(10),), (np.arange(3),)]
        draw = prefix_draw(strata, np.random.default_rng(2), 4)
        zeros = np.zeros(2, dtype=np.int64)
        assert [s.size for s, in draw(zeros, np.array([4, 3]))] == [4, 3]
        with pytest.raises(ValueError):
            draw(zeros, np.array([5, 3]))


class TestAbaeTrial:
    def test_budget_respected(self, toy_strata):
        res = abae_trial(toy_strata, 600, np.random.default_rng(0))
        assert res.oracle_calls <= 600

    def test_oracle_counting(self, toy_strata):
        oracle = SimulatedOracle()
        res = abae_trial(toy_strata, 600, np.random.default_rng(0), oracle=oracle)
        assert oracle.calls == res.oracle_calls

    def test_budget_enforced_by_oracle(self, toy_strata):
        oracle = SimulatedOracle(budget=10)
        with pytest.raises(BudgetExceededError):
            abae_trial(toy_strata, 600, np.random.default_rng(0), oracle=oracle)

    def test_without_replacement(self, toy_strata):
        res = abae_trial(toy_strata, 600, np.random.default_rng(1))
        total = sum(v.size for v, _ in res.samples)
        assert total == res.oracle_calls

    def test_estimate_in_value_range(self, toy_strata):
        all_pos = np.concatenate([v[l == 1] for v, l in toy_strata])
        for seed in range(10):
            res = abae_trial(toy_strata, 300, np.random.default_rng(seed))
            assert all_pos.min() - 1e9 * 0 <= res.estimate <= all_pos.max()

    def test_allocation_matches_stage1_estimates(self, toy_strata):
        res = abae_trial(toy_strata, 600, np.random.default_rng(2))
        p1 = np.array([e.p_hat for e in res.stage1])
        s1 = np.array([e.sigma_hat for e in res.stage1])
        np.testing.assert_allclose(res.allocation, optimal_allocation(p1, s1))

    def test_deterministic_given_seed(self, toy_strata):
        a = abae_trial(toy_strata, 500, np.random.default_rng(7)).estimate
        b = abae_trial(toy_strata, 500, np.random.default_rng(7)).estimate
        assert a == b

    def test_reuse_beats_no_reuse(self, toy_strata):
        """Fig. 9: removing sample reuse must hurt RMSE."""
        truth = _truth(toy_strata)
        er = [
            abae_trial(toy_strata, 400, np.random.default_rng(i), reuse=True).estimate
            for i in range(300)
        ]
        en = [
            abae_trial(toy_strata, 400, np.random.default_rng(i), reuse=False).estimate
            for i in range(300)
        ]
        assert rmse(er, truth) < rmse(en, truth)

    def test_small_stratum_exhausted_not_oversampled(self):
        rng = np.random.default_rng(3)
        strata = [
            (np.ones(10), np.ones(10, dtype=int)),
            (rng.normal(5, 1, 5000), (rng.random(5000) < 0.5).astype(int)),
        ]
        res = abae_trial(strata, 1000, np.random.default_rng(0))
        assert res.samples[0][0].size <= 10

    def test_unbiased_on_toy(self, toy_strata):
        truth = _truth(toy_strata)
        ests = [
            abae_trial(toy_strata, 600, np.random.default_rng(i)).estimate
            for i in range(400)
        ]
        assert np.mean(ests) == pytest.approx(truth, abs=0.05)

    def test_budget_below_strata_rejected(self, toy_strata):
        """N < K would spend K pilot calls; it is rejected instead."""
        oracle = SimulatedOracle()
        with pytest.raises(ValueError):
            abae_trial(toy_strata, 2, np.random.default_rng(0), oracle=oracle)
        assert oracle.calls == 0

    def test_empty_strata_rejected(self):
        """No records at all is an error, not the 0.0 of "no positives"."""
        strata = [(np.empty(0), np.empty(0, dtype=int)) for _ in range(3)]
        oracle = SimulatedOracle()
        with pytest.raises(ValueError):
            abae_trial(strata, 60, np.random.default_rng(0), oracle=oracle)
        assert oracle.calls == 0

    def test_all_negative_strata_returns_zero(self):
        strata = [(np.ones(100), np.zeros(100, dtype=int)) for _ in range(3)]
        res = abae_trial(strata, 60, np.random.default_rng(0))
        assert res.estimate == 0.0


class TestUniformTrial:
    def test_budget(self, toy_strata):
        values = np.concatenate([v for v, _ in toy_strata])
        labels = np.concatenate([l for _, l in toy_strata])
        res = uniform_trial(values, labels, 500, np.random.default_rng(0))
        assert res.oracle_calls == 500

    def test_budget_capped_at_population(self):
        res = uniform_trial(np.ones(50), np.ones(50, dtype=int), 500, np.random.default_rng(0))
        assert res.oracle_calls == 50
        assert res.estimate == 1.0

    def test_unbiased(self, toy_strata):
        values = np.concatenate([v for v, _ in toy_strata])
        labels = np.concatenate([l for _, l in toy_strata])
        truth = float(values[labels == 1].mean())
        ests = [
            uniform_trial(values, labels, 600, np.random.default_rng(i)).estimate
            for i in range(400)
        ]
        assert np.mean(ests) == pytest.approx(truth, abs=0.05)


class TestDeterministicDraws:
    def test_prop2_formula_matches_simulation(self, toy_strata):
        """Prop. 2: the simulated MSE under the optimal allocation with
        deterministic positive draws matches the closed form (the draws
        here are without replacement from finite strata, so allow a
        generous tolerance for the finite-population correction)."""
        p, sigma, _ = true_strata_params(toy_strata)
        t_star = optimal_allocation(p, sigma)
        truth = _truth(toy_strata)
        n = 300
        ests = [
            deterministic_draw_trial(toy_strata, t_star, n, np.random.default_rng(i)).estimate
            for i in range(2000)
        ]
        mse_sim = np.mean((np.array(ests) - truth) ** 2)
        mse_formula = optimal_mse(p, sigma, n)
        assert mse_sim == pytest.approx(mse_formula, rel=0.35)

    def test_optimal_beats_uniform_allocation(self, toy_strata):
        p, sigma, _ = true_strata_params(toy_strata)
        t_star = optimal_allocation(p, sigma)
        t_unif = np.full(len(toy_strata), 1 / len(toy_strata))
        truth = _truth(toy_strata)
        e_star = [
            deterministic_draw_trial(toy_strata, t_star, 200, np.random.default_rng(i)).estimate
            for i in range(800)
        ]
        e_unif = [
            deterministic_draw_trial(toy_strata, t_unif, 200, np.random.default_rng(i)).estimate
            for i in range(800)
        ]
        assert rmse(e_star, truth) <= rmse(e_unif, truth) * 1.05


class TestConvergenceRate:
    def test_rmse_decays_with_n(self, toy_strata):
        """Theorem 4.1: the error decays as O(1/√N) in RMSE."""
        truth = _truth(toy_strata)
        errs = []
        for n in (200, 800, 3200):
            ests = [
                abae_trial(toy_strata, n, np.random.default_rng(i)).estimate
                for i in range(200)
            ]
            errs.append(rmse(ests, truth))
        assert errs[0] > errs[1] > errs[2]
        # quadrupling N should roughly halve the RMSE (allow slack)
        assert errs[1] / errs[0] < 0.75
        assert errs[2] / errs[1] < 0.75


@pytest.mark.parametrize(
    "name",
    ["night_street", "taipei", "celeba", "amazon_posters", "trec05p", "amazon_office"],
)
class TestAbaeBeatsUniformOnSurrogates:
    """The headline Fig. 2 claim, per dataset: ABAE's RMSE is no worse
    than uniform sampling's at the same oracle budget."""

    def test_abae_at_least_matches_uniform(self, real_datasets, name):
        ds = real_datasets[name]
        truth = ds.ground_truth()
        strata = ds.strata(5)
        values, labels = ds.population()
        ea = [
            abae_trial(strata, 1000, np.random.default_rng(i)).estimate
            for i in range(200)
        ]
        eu = [
            uniform_trial(values, labels, 1000, np.random.default_rng(i)).estimate
            for i in range(200)
        ]
        assert rmse(ea, truth) <= rmse(eu, truth) * 1.05


def _truth(strata) -> float:
    vals = np.concatenate([v for v, _ in strata])
    labs = np.concatenate([l for _, l in strata])
    return float(vals[labs == 1].mean())
