"""Logistic regression via IRLS / Newton–Raphson (substrate).

§3.4 of the paper combines multiple proxies by fitting a logistic
regression on Stage-1 samples with the proxy scores as features and the
oracle predicate as the target. sklearn is not available offline, so we
implement a small ridge-regularized Newton solver in numpy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Newton iteration cap of :func:`fit_logistic`.
_MAX_ITER = 100
#: :func:`fit_logistic` stops when the max coefficient update is below this.
_TOL = 1e-8


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable logistic function: exp is only taken of −|z|."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LogisticModel:
    """Fitted logistic regression ``P(y=1|x) = sigmoid(w·x + b)``."""

    weights: np.ndarray
    intercept: float

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Per-row probability of the positive class.

        Args:
            x: (n, d) feature matrix (d = number of proxies).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return sigmoid(x @ self.weights + self.intercept)


def fit_logistic(x: np.ndarray, y: np.ndarray, *, l2: float = 1e-4) -> LogisticModel:
    """Fit a binary logistic regression with Newton–Raphson (IRLS).

    A small L2 penalty keeps the Hessian invertible when the pilot
    sample is separable (common when one proxy is near-perfect).

    Args:
        x: (n, d) proxy-score features.
        y: (n,) binary oracle labels in {0, 1}.
        l2: ridge strength on the weights (not the intercept).

    Returns:
        LogisticModel with fitted weights and intercept.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, d = x.shape
    if y.size != n:
        raise ValueError(f"x has {n} rows but y has {y.size}")
    xb = np.hstack([x, np.ones((n, 1))])  # last column = intercept
    beta = np.zeros(d + 1)
    reg = l2 * np.eye(d + 1)
    reg[-1, -1] = 0.0  # do not penalize the intercept
    for _ in range(_MAX_ITER):
        p = sigmoid(xb @ beta)
        w = np.clip(p * (1.0 - p), 1e-12, None)
        grad = xb.T @ (p - y) + reg @ beta
        hess = (xb * w[:, None]).T @ xb + reg
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta -= step
        if np.max(np.abs(step)) < _TOL:
            break
    return LogisticModel(weights=beta[:-1].copy(), intercept=float(beta[-1]))
