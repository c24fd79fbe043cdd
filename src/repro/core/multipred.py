"""Complex predicates (§3.3, ABAE-MultiPred).

Queries may combine any number of expensive predicates with ¬ / ∧ / ∨.
ABAE-MultiPred folds the per-predicate proxy scores into one score by
rewriting the Boolean expression arithmetically:

* ¬a  →  1 − a
* a ∧ b  →  a · b
* a ∨ b  →  max(a, b)

and then runs plain ABAE with the combined score. On {0, 1} labels the
same arithmetic is the Boolean truth of the expression, so one
evaluator gives both the combined proxy score (from per-predicate
scores) and the oracle truth (from per-predicate 0/1 labels): one
oracle invocation per sampled record resolves the whole predicate.

Inputs are numpy arrays or Spark Columns; the result has the inputs'
type and dtype::

    expr = And(Pred("cars"), Not(Pred("red_light")))
    expr.evaluate({"cars": s1, "red_light": s2})                  # numpy
    expr.evaluate({"cars": F.col("proxy_0"), "red_light": F.col("proxy_1")})  # Spark
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import Column
from pyspark.sql import functions as F


class PredExpr:
    """Base class for predicate-expression nodes."""

    def evaluate(self, inputs: dict):
        """The expression's arithmetic rewrite over ``inputs`` (base
        predicate name → numpy array or Spark Column): the combined
        score in [0, 1] over scores, the truth in {0, 1} over labels."""
        raise NotImplementedError

    def names(self) -> set[str]:
        """All base-predicate names referenced by the expression."""
        raise NotImplementedError


@dataclass(frozen=True)
class Pred(PredExpr):
    """A base expensive predicate identified by name."""

    name: str

    def evaluate(self, inputs):
        return inputs[self.name]

    def names(self):
        return {self.name}


@dataclass(frozen=True)
class Not(PredExpr):
    """Negation: 1 − a."""

    child: PredExpr

    def evaluate(self, inputs):
        return 1 - self.child.evaluate(inputs)

    def names(self):
        return self.child.names()


class _NAry(PredExpr):
    def __init__(self, *children: PredExpr):
        if len(children) < 2:
            raise ValueError(f"{type(self).__name__} needs >= 2 children")
        self.children = tuple(children)

    def __eq__(self, other):
        return type(self) is type(other) and self.children == other.children

    def __hash__(self):
        return hash((type(self).__name__, self.children))

    def names(self):
        return set().union(*(c.names() for c in self.children))


class And(_NAry):
    """Conjunction: the product."""

    def evaluate(self, inputs):
        out = self.children[0].evaluate(inputs)
        for c in self.children[1:]:
            out = out * c.evaluate(inputs)
        return out


class Or(_NAry):
    """Disjunction: the maximum."""

    def evaluate(self, inputs):
        vals = [c.evaluate(inputs) for c in self.children]
        if isinstance(vals[0], Column):
            return F.greatest(*vals)
        return np.maximum.reduce(vals)
