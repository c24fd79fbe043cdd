"""Simulated proxy models (substrate).

The paper assumes a cheap per-record proxy score in [0, 1] correlated
with the expensive predicate (TASTI indexes, specialized MobileNetV2,
keyword rules, NLTK sentiment). We do not have the original media, so
we simulate the *joint distribution* of (proxy score, oracle label):
each record carries a latent logit; the oracle label is a Bernoulli of
the latent probability; the proxy observes the logit through Gaussian
noise whose scale controls proxy quality. This preserves exactly what
ABAE consumes — the ordering/calibration relationship between proxy
score and predicate — which is all the algorithm sees.
"""
from __future__ import annotations

import numpy as np

from repro.optimize.logistic import sigmoid


def calibrate_intercept(
    latent: np.ndarray, target_rate: float, *, tol: float = 1e-6
) -> float:
    """Find b such that mean(sigmoid(latent + b)) == target_rate.

    Used so every dataset surrogate hits the paper's predicate positive
    rate exactly in expectation, regardless of the latent distribution.
    Monotone in b, so bisection is exact.
    """
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = float(sigmoid(latent + mid).mean())
        if abs(rate - target_rate) < tol:
            return mid
        if rate < target_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def noisy_proxy(
    latent: np.ndarray,
    intercept: float,
    noise: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Proxy score: the true label probability observed through noise.

    ``noise`` is the std of Gaussian noise added to the logit. noise=0
    gives a perfectly calibrated proxy; larger values degrade the
    proxy's ordering quality (keyword/NLTK-grade proxies use ~1.5–2).
    """
    return sigmoid(latent + intercept + rng.normal(0.0, noise, latent.shape))


def labels_from_latent(
    latent: np.ndarray, intercept: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw the oracle label O(x) ~ Bernoulli(sigmoid(latent + b))."""
    return (rng.random(latent.shape) < sigmoid(latent + intercept)).astype(np.int64)
