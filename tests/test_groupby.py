"""Tests for core.groupby — ABAE-GroupBy (Eq. 10/11), the minimax
solvers, and the uniform baselines."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.groupby import (
    build_groupby_data,
    groupby_multi_trial,
    groupby_single_trial,
    groupby_uniform_trial,
    solve_minimax_multi,
    solve_minimax_single,
)
from repro.experiments.metrics import max_group_rmse
from repro.simulate import datasets as D
from repro.simulate.oracles import SimulatedOracle


@pytest.fixture(scope="module")
def gb_multi():
    return D.synthetic_groupby_multi(n=20000)


@pytest.fixture(scope="module")
def gb_single():
    return D.synthetic_groupby_single(n=20000)


@pytest.fixture(scope="module")
def gb_celeba():
    return D.celeba_groupby(scale=0.02)


class TestBuildGroupByData:
    def test_partitions_per_stratification(self, gb_multi):
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 5)
        n = len(gb_multi.pdf)
        assert data.n_groups == 4
        assert data.k == 5
        for l in range(4):
            assert sum(b[0].size for b in data.strata[l]) == n

    def test_group_counts_preserved(self, gb_multi):
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 5)
        for g in range(4):
            want = int((gb_multi.pdf["group"] == g).sum())
            for l in range(4):
                got = sum(int((b[1] == g).sum()) for b in data.strata[l])
                assert got == want

    def test_ids_unique_within_stratification(self, gb_multi):
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 3)
        ids = np.concatenate([b[2] for b in data.strata[0]])
        assert np.unique(ids).size == ids.size


class TestMinimaxSolvers:
    def test_multi_closed_form(self):
        coefs = np.array([2.0, 1.0, 4.0])
        lam = solve_minimax_multi(coefs, 500)
        np.testing.assert_allclose(lam, coefs / coefs.sum(), atol=5e-3)

    def test_multi_equalizes_errors(self):
        coefs = np.array([1.0, 3.0])
        lam = solve_minimax_multi(coefs, 100)
        errs = coefs / (lam * 100)
        assert errs[0] == pytest.approx(errs[1], rel=0.02)

    def test_single_symmetric_case_objective_flat(self):
        # With identical coefs the Eq.-10 objective is constant in Λ
        # (err_g = c/(N·ΣΛ) = c/N), so any simplex point is optimal;
        # check the solver lands on the flat optimum's value.
        coef_lg = np.ones((3, 3))
        lam = solve_minimax_single(coef_lg, 100)
        inv = (lam[:, None] * 100) / coef_lg
        assert float(np.max(1.0 / inv.sum(axis=0))) == pytest.approx(1 / 100)

    def test_single_objective_value_improves_on_uniform(self):
        rng = np.random.default_rng(0)
        coef_lg = rng.uniform(0.5, 5.0, (4, 4))

        def obj(lam):
            inv = (lam[:, None] * 100) / coef_lg
            return float(np.max(1.0 / inv.sum(axis=0)))

        lam = solve_minimax_single(coef_lg, 100)
        assert obj(lam) <= obj(np.full(4, 0.25)) + 1e-12

    def test_simplex_outputs(self):
        for lam in (
            solve_minimax_multi(np.array([1.0, 2.0]), 10),
            solve_minimax_single(np.ones((2, 2)), 10),
        ):
            assert lam.sum() == pytest.approx(1.0)
            assert np.all(lam >= 0)


class TestMultiOracleTrial:
    def test_budget_respected(self, gb_multi):
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 5)
        res = groupby_multi_trial(data, 4000, np.random.default_rng(0))
        assert res.oracle_calls <= 4000

    def test_oracle_charged(self, gb_multi):
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 5)
        oracle = SimulatedOracle()
        res = groupby_multi_trial(data, 2000, np.random.default_rng(0), oracle=oracle)
        assert oracle.calls == res.oracle_calls

    def test_budget_below_bins_rejected(self, gb_multi):
        """N < G·K cannot pilot every (stratification, stratum) bin: at
        N = 8 with 4 groups and 5 strata it is rejected before any call."""
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 5)
        oracle = SimulatedOracle()
        with pytest.raises(ValueError):
            groupby_multi_trial(data, 8, np.random.default_rng(0), oracle=oracle)
        assert oracle.calls == 0

    def test_estimates_shape_and_finite(self, gb_multi):
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 5)
        res = groupby_multi_trial(data, 4000, np.random.default_rng(1))
        assert res.estimates.shape == (4,)
        assert np.all(np.isfinite(res.estimates))

    def test_near_truth_on_average(self, gb_multi):
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 5)
        truths = gb_multi.group_truths()
        ests = np.array(
            [
                groupby_multi_trial(data, 4000, np.random.default_rng(i)).estimates
                for i in range(60)
            ]
        )
        np.testing.assert_allclose(ests.mean(axis=0), truths, atol=0.35)

    def test_beats_uniform_max_rmse(self, gb_multi):
        """Fig. 8's claim on the synthetic multi-oracle dataset."""
        data = build_groupby_data(gb_multi.pdf, list(gb_multi.proxy_cols), 5)
        truths = gb_multi.group_truths()
        vals = gb_multi.pdf["value"].to_numpy(float)
        grp = gb_multi.pdf["group"].to_numpy()
        ea = np.array(
            [
                groupby_multi_trial(data, 4000, np.random.default_rng(i)).estimates
                for i in range(50)
            ]
        )
        eu = np.array(
            [
                groupby_uniform_trial(
                    vals, grp, 4000, np.random.default_rng(i), 4, per_group_oracle=True
                ).estimates
                for i in range(50)
            ]
        )
        assert max_group_rmse(ea, truths) < max_group_rmse(eu, truths)


class TestSingleOracleTrial:
    def test_budget_respected(self, gb_single):
        data = build_groupby_data(gb_single.pdf, list(gb_single.proxy_cols), 5)
        res = groupby_single_trial(data, 4000, np.random.default_rng(0))
        assert res.oracle_calls <= 4000

    def test_calls_count_unique_records(self, gb_single):
        """A record drawn through two stratifications is labeled once."""
        data = build_groupby_data(gb_single.pdf, list(gb_single.proxy_cols), 5)
        res = groupby_single_trial(data, 3000, np.random.default_rng(2))
        # oracle_calls is the size of the seen-id set, so it cannot
        # exceed the sum of per-bin draws, and equals it only if no
        # record repeats.
        assert 0 < res.oracle_calls <= 3000

    def test_budget_below_bins_rejected(self, gb_single):
        data = build_groupby_data(gb_single.pdf, list(gb_single.proxy_cols), 5)
        oracle = SimulatedOracle()
        with pytest.raises(ValueError):
            groupby_single_trial(data, 8, np.random.default_rng(0), oracle=oracle)
        assert oracle.calls == 0

    def test_estimates_finite(self, gb_single):
        data = build_groupby_data(gb_single.pdf, list(gb_single.proxy_cols), 5)
        res = groupby_single_trial(data, 4000, np.random.default_rng(3))
        assert np.all(np.isfinite(res.estimates))

    def test_near_truth_on_average(self, gb_single):
        data = build_groupby_data(gb_single.pdf, list(gb_single.proxy_cols), 5)
        truths = gb_single.group_truths()
        ests = np.array(
            [
                groupby_single_trial(data, 4000, np.random.default_rng(i)).estimates
                for i in range(60)
            ]
        )
        np.testing.assert_allclose(ests.mean(axis=0), truths, atol=0.35)

    def test_at_least_matches_uniform_on_celeba(self, gb_celeba):
        """Fig. 7's claim on the celeba group-by surrogate (gray vs
        blond, imbalanced rates — where minimax allocation pays off)."""
        data = build_groupby_data(gb_celeba.pdf, list(gb_celeba.proxy_cols), 5)
        truths = gb_celeba.group_truths()
        vals = gb_celeba.pdf["value"].to_numpy(float)
        grp = gb_celeba.pdf["group"].to_numpy()
        ea = np.array(
            [
                groupby_single_trial(data, 2000, np.random.default_rng(i)).estimates
                for i in range(50)
            ]
        )
        eu = np.array(
            [
                groupby_uniform_trial(
                    vals, grp, 2000, np.random.default_rng(i), 2
                ).estimates
                for i in range(50)
            ]
        )
        assert max_group_rmse(ea, truths) <= max_group_rmse(eu, truths) * 1.05


class TestUniformBaseline:
    def test_single_oracle_budget(self, gb_single):
        vals = gb_single.pdf["value"].to_numpy(float)
        grp = gb_single.pdf["group"].to_numpy()
        res = groupby_uniform_trial(vals, grp, 1000, np.random.default_rng(0), 4)
        assert res.oracle_calls == 1000

    def test_multi_oracle_budget_split(self, gb_multi):
        vals = gb_multi.pdf["value"].to_numpy(float)
        grp = gb_multi.pdf["group"].to_numpy()
        res = groupby_uniform_trial(
            vals, grp, 1000, np.random.default_rng(0), 4, per_group_oracle=True
        )
        assert res.oracle_calls == 4 * 250

    def test_unbiased(self, gb_multi):
        vals = gb_multi.pdf["value"].to_numpy(float)
        grp = gb_multi.pdf["group"].to_numpy()
        truths = gb_multi.group_truths()
        ests = np.array(
            [
                groupby_uniform_trial(
                    vals, grp, 4000, np.random.default_rng(i), 4
                ).estimates
                for i in range(80)
            ]
        )
        np.testing.assert_allclose(ests.mean(axis=0), truths, atol=0.3)
