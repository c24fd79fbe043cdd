"""Nelder–Mead simplex minimizer (substrate).

The paper (§3.2, §4.5) solves the minimax sample-allocation objectives
(Eq. 10 / Eq. 11) with the Nelder–Mead simplex algorithm; here it serves
Eq. 10, whose Λ has one coordinate per group. scipy is not available
offline, so we implement the standard algorithm (reflection,
expansion, contraction, shrink) from scratch.

The implementation follows the textbook parameterization
(alpha=1, gamma=2, rho=0.5, sigma=0.5) with adaptive initial simplex.
The simplex bookkeeping (ordering, centroid, moves, convergence test)
runs on Python floats: with a handful of dimensions numpy's per-call
overhead costs more than the arithmetic. The objective still receives
numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class NMResult:
    """Result of a Nelder–Mead run.

    Attributes:
        x: the best point found.
        fun: objective value at ``x``.
        n_iter: iterations performed.
        converged: whether the simplex collapsed below tolerance.
    """

    x: np.ndarray
    fun: float
    n_iter: int
    converged: bool


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    *,
    max_iter: int = 2000,
    xatol: float = 1e-8,
    fatol: float = 1e-10,
    initial_step: float = 0.1,
) -> NMResult:
    """Minimize ``f`` starting from ``x0`` with the Nelder–Mead simplex.

    Args:
        f: objective; must accept a 1-D numpy array and return a float.
            A NaN value counts as +inf, so its vertex ranks worst.
        x0: starting point (1-D array).
        max_iter: iteration cap.
        xatol: simplex-diameter convergence tolerance.
        fatol: objective-spread convergence tolerance.
        initial_step: per-coordinate perturbation used to build the
            initial simplex (relative when the coordinate is nonzero).

    Returns:
        NMResult with the best vertex found.
    """
    start = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(start)

    def evaluate(v: list[float]) -> float:
        fv = float(f(np.array(v)))
        return fv if fv == fv else math.inf

    # Initial simplex: x0 plus n vertices, each moved along one axis.
    simplex = [start]
    for i in range(n):
        v = list(start)
        v[i] += initial_step * abs(v[i]) if v[i] != 0 else initial_step
        simplex.append(v)
    fvals = [evaluate(v) for v in simplex]

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    n_iter = 0
    converged = False
    while n_iter < max_iter:
        order = sorted(range(n + 1), key=fvals.__getitem__)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        best, f_best = simplex[0], fvals[0]
        # fvals is sorted, so its spread is its last value minus the first.
        if fvals[-1] - f_best <= fatol and all(
            abs(a - b) <= xatol for v in simplex[1:] for a, b in zip(v, best)
        ):
            converged = True
            break
        centroid = [sum(col) / n for col in zip(*simplex[:-1])]
        worst = simplex[-1]
        # Reflection.
        xr = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        fr = evaluate(xr)
        if f_best <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        elif fr < f_best:
            # Expansion.
            xe = [c + gamma * (r - c) for c, r in zip(centroid, xr)]
            fe = evaluate(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        else:
            # Contraction (outside if reflected beat worst, else inside).
            toward = xr if fr < fvals[-1] else worst
            xc = [c + rho * (t - c) for c, t in zip(centroid, toward)]
            fc = evaluate(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                # Shrink toward the best vertex.
                for i in range(1, n + 1):
                    simplex[i] = [b + sigma * (a - b) for a, b in zip(simplex[i], best)]
                    fvals[i] = evaluate(simplex[i])
        n_iter += 1

    i_best = min(range(n + 1), key=fvals.__getitem__)
    return NMResult(
        x=np.array(simplex[i_best]), fun=fvals[i_best], n_iter=n_iter, converged=converged
    )


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax, used to parameterize the simplex
    constraint Λ ∈ [0,1]^G, ΣΛ=1 as an unconstrained problem."""
    x = np.asarray(x, dtype=float)
    z = x - x.max()
    e = np.exp(z)
    return e / e.sum()


def minimize_on_simplex(
    f: Callable[[np.ndarray], float],
    n_dims: int,
    *,
    x0: np.ndarray | None = None,
    max_iter: int = 2000,
) -> np.ndarray:
    """Minimize ``f(Λ)`` over the probability simplex of dimension ``n_dims``.

    The paper optimizes Eq. 10/11 over Λ with ΣΛ=1 via Nelder–Mead; we
    reparameterize through a softmax so the search is unconstrained,
    which keeps the simplex constraint exactly satisfied at every
    evaluation.

    Returns:
        The optimal allocation Λ (sums to 1).
    """
    if x0 is None:
        x0 = np.zeros(n_dims)
    res = nelder_mead(lambda t: f(softmax(t)), np.asarray(x0, float), max_iter=max_iter,
                      initial_step=0.5)
    return softmax(res.x)
