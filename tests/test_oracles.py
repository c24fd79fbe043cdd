"""Tests for simulate.oracles — invocation metering, the heart of the
paper's cost model."""
from __future__ import annotations

import numpy as np
import pytest

from repro.simulate.oracles import BudgetExceededError, SimulatedOracle


class TestLocalOracle:
    def test_counts_calls(self):
        o = SimulatedOracle()
        o.call(np.ones(10))
        o.call(np.zeros(5))
        assert o.calls == 15

    def test_returns_labels_unchanged(self):
        o = SimulatedOracle()
        labs = np.array([1, 0, 1])
        np.testing.assert_array_equal(o.call(labs), labs)

    def test_budget_enforced(self):
        o = SimulatedOracle(budget=10)
        o.call(np.ones(10))
        with pytest.raises(BudgetExceededError):
            o.call(np.ones(1))

    def test_budget_exact_ok(self):
        o = SimulatedOracle(budget=10)
        o.call(np.ones(10))
        assert o.calls == 10

    def test_reset(self):
        o = SimulatedOracle()
        o.call(np.ones(5))
        o.reset()
        assert o.calls == 0

