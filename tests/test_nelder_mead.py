"""Tests for optimize.nelder_mead — the from-scratch simplex solver
used for the Eq. 10 minimax allocation."""
from __future__ import annotations

import numpy as np
import pytest

import repro.core.groupby as G
from repro.core.groupby import build_groupby_data, solve_minimax_multi
from repro.optimize.nelder_mead import NMResult, minimize_on_simplex, nelder_mead, softmax
from repro.simulate import datasets as D


def _reference_nelder_mead(f, x0, *, max_iter=2000, xatol=1e-8, fatol=1e-10, initial_step=0.1):
    """The same algorithm with the simplex held in numpy arrays, for
    parity with the Python-float bookkeeping of :func:`nelder_mead`."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        step = initial_step * abs(x0[i]) if x0[i] != 0 else initial_step
        simplex[i + 1, i] += step
    fvals = np.array([f(v) for v in simplex], dtype=float)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    n_iter = 0
    converged = False
    while n_iter < max_iter:
        order = np.argsort(fvals)
        simplex, fvals = simplex[order], fvals[order]
        if (
            np.max(np.abs(simplex[1:] - simplex[0])) <= xatol
            and np.max(np.abs(fvals[1:] - fvals[0])) <= fatol
        ):
            converged = True
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        xr = centroid + alpha * (centroid - worst)
        fr = f(xr)
        if fvals[0] <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + rho * (xr - centroid)
            else:
                xc = centroid + rho * (worst - centroid)
            fc = f(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + sigma * (simplex[1:] - simplex[0])
                fvals[1:] = np.array([f(v) for v in simplex[1:]])
        n_iter += 1

    best = int(np.argmin(fvals))
    return NMResult(
        x=simplex[best].copy(), fun=float(fvals[best]), n_iter=n_iter, converged=converged
    )


def _rosen(x):
    return float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)


# (objective, x0, keyword arguments): the objectives of TestNelderMead.
_OBJECTIVES = {
    "quadratic_1d": (lambda x: (x[0] - 3.0) ** 2, [0.0], {}),
    "quadratic_nd": (
        lambda x: float(((x - np.array([1.0, -2.0, 0.5])) ** 2).sum()), [0.0, 0.0, 0.0], {}
    ),
    "anisotropic": (lambda x: float((np.array([1.0, 100.0]) * x**2).sum()), [2.0, 2.0], {}),
    "rosenbrock": (_rosen, [-1.2, 1.0], {"max_iter": 5000}),
    "abs_nonsmooth": (lambda x: abs(x[0] - 2) + abs(x[1] + 1), [0.0, 0.0], {}),
    "max_of_linear": (lambda x: max(x[0], 1 - x[0]), [0.1], {}),
    "iteration_cap": (lambda x: float((x**2).sum()), [1.0, 1.0, 1.0], {"max_iter": 5}),
}


def _eq10_problems(monkeypatch) -> list[tuple[np.ndarray, int]]:
    """The 20 Eq.-10 problems (coef[l, g], N₂) that single-oracle trials
    solve on the Fig. 7 synthetic set (20,000 rows, K = 5, seeds 0-9,
    500 and 2,000 draws per group)."""
    ds = D.synthetic_groupby_single(n=20_000)
    data = build_groupby_data(ds.pdf, list(ds.proxy_cols), 5)
    problems = []
    solve = G.solve_minimax_single

    def record(coef_lg, n2):
        problems.append((coef_lg, n2))
        return solve(coef_lg, n2)

    monkeypatch.setattr(G, "solve_minimax_single", record)
    for nb in (500, 2000):
        for seed in range(10):
            G.groupby_single_trial(data, nb * data.n_groups, np.random.default_rng(seed))
    return problems


class TestNelderMead:
    def test_quadratic_1d(self):
        res = nelder_mead(lambda x: (x[0] - 3.0) ** 2, np.array([0.0]))
        assert res.x[0] == pytest.approx(3.0, abs=1e-4)
        assert res.converged

    def test_quadratic_nd(self):
        target = np.array([1.0, -2.0, 0.5])
        res = nelder_mead(lambda x: float(((x - target) ** 2).sum()), np.zeros(3))
        np.testing.assert_allclose(res.x, target, atol=1e-4)

    def test_anisotropic_quadratic(self):
        a = np.array([1.0, 100.0])
        res = nelder_mead(lambda x: float((a * x**2).sum()), np.array([2.0, 2.0]))
        np.testing.assert_allclose(res.x, 0.0, atol=1e-3)

    def test_rosenbrock_2d(self):
        def rosen(x):
            return float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

        res = nelder_mead(rosen, np.array([-1.2, 1.0]), max_iter=5000)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-2)

    def test_abs_nonsmooth(self):
        res = nelder_mead(lambda x: abs(x[0] - 2) + abs(x[1] + 1), np.zeros(2))
        np.testing.assert_allclose(res.x, [2.0, -1.0], atol=1e-3)

    def test_max_of_linear_minimax_flavor(self):
        # min over x of max(x, 1-x) = 0.5 at x=0.5
        res = nelder_mead(lambda x: max(x[0], 1 - x[0]), np.array([0.1]))
        assert res.x[0] == pytest.approx(0.5, abs=1e-3)

    def test_iteration_cap(self):
        res = nelder_mead(lambda x: float((x**2).sum()), np.ones(3), max_iter=5)
        assert res.n_iter <= 5


class TestMatchesReference:
    """The Python-float simplex makes the moves of the numpy one: same
    convergence, x within 1e-6 and f within 1e-9 relative. Only ties
    between vertices may be ordered differently."""

    @staticmethod
    def _assert_same(res, ref):
        assert res.converged == ref.converged
        assert res.fun == pytest.approx(ref.fun, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(_OBJECTIVES))
    def test_objectives(self, name):
        f, x0, kw = _OBJECTIVES[name]
        res = nelder_mead(f, np.array(x0), **kw)
        ref = _reference_nelder_mead(f, np.array(x0), **kw)
        self._assert_same(res, ref)
        np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=1e-6)

    def test_eq10_allocations(self, monkeypatch):
        """On Eq. 10 the softmax logits are fixed only up to a common
        shift, so the allocations Λ = softmax(x) are compared."""
        problems = _eq10_problems(monkeypatch)
        assert len(problems) == 20
        for coef, n2 in problems:
            prec = n2 / np.maximum(coef, 1e-12)

            def f(t):
                return 1.0 / float((np.maximum(softmax(t), 1e-12) @ prec).min())

            res = nelder_mead(f, np.zeros(len(prec)), initial_step=0.5)
            ref = _reference_nelder_mead(f, np.zeros(len(prec)), initial_step=0.5)
            self._assert_same(res, ref)
            np.testing.assert_allclose(softmax(res.x), softmax(ref.x), rtol=0, atol=1e-6)

    def test_nan_ranks_last(self):
        """NaN values (here for x < 0, which the first step overshoots
        into) rank as +inf, as numpy's sort puts them last."""
        neg = []

        def f(x):
            neg.append(x[0] < 0)
            return np.nan if x[0] < 0 else (x[0] - 0.01) ** 2

        res = nelder_mead(f, np.array([1.0]), initial_step=2.0)
        assert any(neg)
        assert res.converged
        assert res.x[0] == pytest.approx(0.01, abs=1e-4)


class TestSoftmax:
    def test_simplex(self):
        s = softmax(np.array([1.0, 2.0, 3.0]))
        assert s.sum() == pytest.approx(1.0)
        assert np.all(s > 0)

    def test_stability_large_inputs(self):
        s = softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(s, 0.5)

    def test_ordering(self):
        s = softmax(np.array([0.0, 5.0]))
        assert s[1] > s[0]


class TestMinimizeOnSimplex:
    def test_stays_on_simplex(self):
        lam = minimize_on_simplex(lambda l: float((l**2).sum()), 4)
        assert lam.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(lam, 0.25, atol=1e-3)

    def test_weighted_minimax_closed_form(self):
        """min_Λ max_g c_g/Λ_g has the closed form Λ_g ∝ c_g — the
        Eq. 11 oracle the solver must recover."""
        c = np.array([1.0, 4.0, 2.0])
        lam = minimize_on_simplex(lambda l: float(np.max(c / np.maximum(l, 1e-12))), 3)
        np.testing.assert_allclose(lam, c / c.sum(), atol=5e-3)

    def test_solve_minimax_multi_matches_closed_form(self):
        coefs = np.array([0.5, 3.0, 1.5, 0.1])
        lam = solve_minimax_multi(coefs, 1000)
        np.testing.assert_allclose(lam, coefs / coefs.sum(), atol=5e-3)

    def test_solve_minimax_multi_equal_coefs(self):
        lam = solve_minimax_multi(np.ones(5), 100)
        np.testing.assert_allclose(lam, 0.2, atol=5e-3)
