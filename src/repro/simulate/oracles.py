"""Simulated expensive oracles (substrate).

The paper's oracles are expensive DNNs (Mask R-CNN, BERT) or human
labelers; cost is measured in oracle *invocations* (§5.1 "Metrics").
Our surrogate datasets carry the oracle's answer as a hidden column;
this module is the only sanctioned way to read it, and it counts every
invocation so tests and experiments can assert the sampling budget is
respected — the core claim of the paper is doing fewer of these calls.

The Spark queries (``core.abae``) select their sampled rows in Spark and
label them on the driver through :meth:`SimulatedOracle.call`, as the
numpy paths do, so every labeled row is one metered call on every path.
"""
from __future__ import annotations

import numpy as np


class BudgetExceededError(RuntimeError):
    """Raised when an oracle is invoked more times than its budget."""


class SimulatedOracle:
    """Call-counting gate in front of a hidden label column.

    Args:
        label_col: name of the hidden ground-truth column in the dataset
            (e.g. ``"label"`` for the predicate, ``"group"`` for a
            group-by key oracle).
        budget: optional hard cap on invocations; exceeding it raises
            BudgetExceededError, mirroring the ``ORACLE LIMIT`` clause.
    """

    def __init__(self, label_col: str = "label", budget: int | None = None):
        self.label_col = label_col
        self.budget = budget
        self._count = 0

    def call(self, values: np.ndarray) -> np.ndarray:
        """Invoke the oracle on ``values`` (the hidden labels of the
        sampled records). Returns them unchanged; counts the calls."""
        values = np.asarray(values)
        self.charge(values.size)
        return values

    def check_budget(self, n: int) -> None:
        """Raise BudgetExceededError, before any call is made, if ``n``
        more calls would exceed the budget (the Spark queries' guard for a
        stage's rows)."""
        if self.budget is not None and self.calls + int(n) > self.budget:
            raise BudgetExceededError(
                f"oracle budget exceeded: {self.calls} spent + {int(n)} planned"
                f" > {self.budget}"
            )

    def charge(self, n: int) -> None:
        """Count ``n`` calls made outside :meth:`call` (e.g. a group-by
        trial's deduplicated draws); raise BudgetExceededError if the
        total now exceeds the budget."""
        self._count += int(n)
        if self.budget is not None and self.calls > self.budget:
            raise BudgetExceededError(
                f"oracle exceeded budget: {self.calls} > {self.budget}"
            )

    @property
    def calls(self) -> int:
        """Total invocations so far."""
        return self._count

    def reset(self) -> None:
        self._count = 0
