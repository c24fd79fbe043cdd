"""Tests for core.allocation — Propositions 1 and 2 (§4.2)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    err_coefs,
    mse_for_allocation,
    optimal_allocation,
    optimal_mse,
    stage2_counts,
    uniform_mse,
)


class TestOptimalAllocation:
    def test_formula_matches_prop1(self):
        p = np.array([0.1, 0.4, 0.9])
        sigma = np.array([1.0, 2.0, 0.5])
        t = optimal_allocation(p, sigma)
        raw = np.sqrt(p) * sigma
        np.testing.assert_allclose(t, raw / raw.sum())

    def test_sums_to_one(self):
        t = optimal_allocation(np.array([0.2, 0.3]), np.array([1.0, 4.0]))
        assert t.sum() == pytest.approx(1.0)

    def test_zero_everything_falls_back_to_uniform(self):
        t = optimal_allocation(np.zeros(4), np.ones(4))
        np.testing.assert_allclose(t, 0.25)

    def test_zero_sigma_stratum_gets_nothing(self):
        t = optimal_allocation(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        assert t[0] == 0.0 and t[1] == pytest.approx(1.0)

    def test_zero_p_stratum_gets_nothing(self):
        t = optimal_allocation(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        assert t[0] == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            optimal_allocation(np.ones(3), np.ones(2))

    def test_scale_invariant_in_sigma(self):
        p = np.array([0.1, 0.7])
        s = np.array([1.0, 3.0])
        np.testing.assert_allclose(
            optimal_allocation(p, s), optimal_allocation(p, 10 * s)
        )

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_simplex(self, ps, ss):
        k = min(len(ps), len(ss))
        t = optimal_allocation(np.array(ps[:k]), np.array(ss[:k]))
        assert t.shape == (k,)
        assert np.all(t >= 0)
        assert t.sum() == pytest.approx(1.0)


class TestProp1Optimality:
    """The optimal allocation must minimize the Eq.-3 MSE over the
    simplex — checked by perturbing toward every other vertex."""

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbations_never_improve(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 6)
        p = rng.uniform(0.05, 0.9, k)
        sigma = rng.uniform(0.1, 5.0, k)
        t_star = optimal_allocation(p, sigma)
        base = mse_for_allocation(p, sigma, t_star, 1000)
        for _ in range(25):
            d = rng.normal(0, 0.02, k)
            d -= d.mean()  # stay on the simplex
            t = np.clip(t_star + d, 1e-6, None)
            t /= t.sum()
            assert mse_for_allocation(p, sigma, t, 1000) >= base - 1e-12


class TestProp2MSE:
    def test_closed_form_equals_eq3_at_optimum(self):
        p = np.array([0.2, 0.5, 0.8])
        sigma = np.array([1.5, 0.7, 2.0])
        t_star = optimal_allocation(p, sigma)
        assert optimal_mse(p, sigma, 500) == pytest.approx(
            mse_for_allocation(p, sigma, t_star, 500)
        )

    def test_decays_linearly_in_n(self):
        p = np.array([0.3, 0.6])
        sigma = np.array([1.0, 2.0])
        assert optimal_mse(p, sigma, 2000) == pytest.approx(
            optimal_mse(p, sigma, 1000) / 2
        )

    def test_uniform_mse_never_below_optimal(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = rng.integers(2, 7)
            p = rng.uniform(0.05, 0.95, k)
            sigma = rng.uniform(0.1, 3.0, k)
            assert uniform_mse(p, sigma, 100) >= optimal_mse(p, sigma, 100) - 1e-12

    def test_k_fold_improvement_example(self):
        """§4.2's example: p_1=1, p_k=0 otherwise, σ=1 ⇒ stratified is
        K× better than uniform in MSE."""
        k = 5
        p = np.zeros(k)
        p[0] = 1.0
        sigma = np.ones(k)
        # uniform with deterministic draws: sigma^2/(N p_avg) = K/N
        assert optimal_mse(p, sigma, 100) == pytest.approx(1 / 100)
        assert uniform_mse(p, sigma, 100) == pytest.approx(k / 100)

    def test_zero_population_is_zero(self):
        assert optimal_mse(np.zeros(3), np.ones(3), 100) == 0.0

    def test_unsampled_positive_stratum_is_infinite(self):
        p = np.array([0.5, 0.5])
        sigma = np.array([1.0, 1.0])
        t = np.array([1.0, 0.0])
        assert mse_for_allocation(p, sigma, t, 100) == float("inf")


def _eq3_loop(p, sigma, t, n):
    """Eq. 3 one stratum at a time: the reference for :func:`err_coefs`."""
    p_all = p.sum()
    if p_all <= 0:
        return 0.0
    out = 0.0
    for k in range(p.size):
        num = (p[k] / p_all) ** 2 * sigma[k] ** 2
        if num == 0.0:
            continue
        if p[k] * t[k] * n <= 0.0:
            return float("inf")
        out += num / (p[k] * t[k] * n)
    return out


class TestErrCoefs:
    def test_matches_loop_reference(self):
        """Every column of a batched (L, K, G) call, and
        ``mse_for_allocation``, equal the loop within a few ulp (the sum
        is taken in another order); 0 and inf exactly. Inputs include
        strata with p = 0, σ = 0 and t = 0."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            l, k, g = rng.integers(1, 5), rng.integers(1, 8), rng.integers(1, 5)
            p = rng.random((l, k, g)) * (rng.random((l, k, g)) < 0.8)
            sigma = rng.random((l, k, g)) * 3 * (rng.random((l, k, g)) < 0.9)
            t = rng.dirichlet(np.ones(k), size=l) * (rng.random((l, k)) < 0.85)
            n = int(rng.integers(1, 1000))
            got = err_coefs(p, sigma, t)
            assert got.shape == (l, g)
            for i in range(l):
                for j in range(g):
                    want = _eq3_loop(p[i, :, j], sigma[i, :, j], t[i], 1)
                    mse = mse_for_allocation(p[i, :, j], sigma[i, :, j], t[i], n)
                    want_mse = _eq3_loop(p[i, :, j], sigma[i, :, j], t[i], n)
                    for a, b in ((got[i, j], want), (mse, want_mse)):
                        if np.isfinite(b) and b > 0:
                            assert a == pytest.approx(b, rel=16 * np.finfo(float).eps)
                        else:
                            assert a == b


class TestStage2Counts:
    def test_floors(self):
        np.testing.assert_array_equal(
            stage2_counts(np.array([0.5, 0.3, 0.2]), 99), [49, 29, 19]
        )

    def test_never_exceeds_budget(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = rng.dirichlet(np.ones(5))
            assert stage2_counts(t, 1234).sum() <= 1234

    def test_zero_budget(self):
        assert stage2_counts(np.array([0.5, 0.5]), 0).sum() == 0
