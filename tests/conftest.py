"""Shared fixtures for the test suite.

Dataset surrogates are session-scoped (deterministic in their seeds) so
the many parametrized tests don't regenerate them. The SparkSession
fixture comes from the repo-root conftest.py.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.simulate import datasets as D

TEST_SCALE = 0.02  # ~2k–24k rows per dataset: unit-test sized


@pytest.fixture(scope="session")
def real_datasets() -> dict[str, D.Dataset]:
    """All six Table-2 surrogates at test scale."""
    return {name: D.load(name, scale=TEST_SCALE) for name in D.REAL_WORLD}


@pytest.fixture(scope="session")
def night_street() -> D.Dataset:
    return D.load("night_street", scale=TEST_SCALE)


@pytest.fixture(scope="session")
def toy_strata() -> list[tuple[np.ndarray, np.ndarray]]:
    """Small deterministic strata for kernel unit tests: 3 strata with
    known p_k and values."""
    rng = np.random.default_rng(42)
    out = []
    for p, mu in [(0.1, 1.0), (0.4, 5.0), (0.8, 10.0)]:
        n = 2000
        labels = (rng.random(n) < p).astype(np.int64)
        values = np.where(labels == 1, rng.normal(mu, 1.0, n), 0.0)
        out.append((values, labels))
    return out
