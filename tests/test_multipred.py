"""Tests for core.multipred — predicate ASTs, the ¬/∧/∨ arithmetic
rewriting as scores and as Boolean truth, and numpy/Spark/DuckDB
parity."""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.multipred import And, Not, Or, Pred
from repro.oracle import assert_equivalent


def _scores(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return {"a": rng.random(n), "b": rng.random(n), "c": rng.random(n)}


def _labels(n=200, seed=1):
    rng = np.random.default_rng(seed)
    return {k: (rng.random(n) < 0.5).astype(np.int64) for k in ("a", "b", "c")}


class TestScoreRewriting:
    def test_not(self):
        s = _scores()
        np.testing.assert_allclose(Not(Pred("a")).evaluate(s), 1 - s["a"])

    def test_and_is_product(self):
        s = _scores()
        np.testing.assert_allclose(
            And(Pred("a"), Pred("b")).evaluate(s), s["a"] * s["b"]
        )

    def test_or_is_max(self):
        s = _scores()
        np.testing.assert_allclose(
            Or(Pred("a"), Pred("b")).evaluate(s), np.maximum(s["a"], s["b"])
        )

    def test_nary(self):
        s = _scores()
        np.testing.assert_allclose(
            And(Pred("a"), Pred("b"), Pred("c")).evaluate(s), s["a"] * s["b"] * s["c"]
        )

    def test_nested(self):
        s = _scores()
        expr = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
        np.testing.assert_allclose(
            expr.evaluate(s), np.maximum(s["a"] * (1 - s["b"]), s["c"])
        )

    def test_scores_stay_in_unit_interval(self):
        s = _scores()
        for expr in (
            Not(Pred("a")),
            And(Pred("a"), Pred("b")),
            Or(Pred("a"), Not(Pred("c"))),
            Not(Or(Pred("a"), And(Pred("b"), Pred("c")))),
        ):
            out = expr.evaluate(s)
            assert np.all((out >= 0) & (out <= 1))

    def test_too_few_children_raises(self):
        with pytest.raises(ValueError):
            And(Pred("a"))

    def test_names(self):
        expr = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
        assert expr.names() == {"a", "b", "c"}


class TestTruthSemantics:
    @pytest.mark.parametrize("bits", list(itertools.product([0, 1], repeat=3)))
    def test_truth_table(self, bits):
        labels = {k: np.array([v]) for k, v in zip("abc", bits)}
        a, b, c = bits
        expr = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
        expected = int((a and not b) or c)
        assert expr.evaluate(labels)[0] == expected

    def test_truth_binary_output(self):
        labs = _labels()
        out = Or(Pred("a"), And(Pred("b"), Not(Pred("c")))).evaluate(labs)
        assert set(np.unique(out)) <= {0, 1}

    @given(st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=12, deadline=None)
    def test_de_morgan(self, a, b):
        labels = {"a": np.array([a]), "b": np.array([b])}
        lhs = Not(And(Pred("a"), Pred("b"))).evaluate(labels)[0]
        rhs = Or(Not(Pred("a")), Not(Pred("b"))).evaluate(labels)[0]
        assert lhs == rhs

    def test_perfect_proxies_make_score_equal_truth(self):
        """§3.3: with perfectly calibrated, perfectly sharp proxies
        (scores ∈ {0,1} equal to labels) the combined score equals the
        expression's truth."""
        labs = _labels()
        scores = {k: v.astype(float) for k, v in labs.items()}
        expr = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
        np.testing.assert_allclose(expr.evaluate(scores), expr.evaluate(labs))


@pytest.mark.spark
class TestSparkParity:
    def _df(self, spark):
        s = _scores(300, 2)
        l = _labels(300, 3)
        pdf = pd.DataFrame(
            {
                "id": np.arange(300),
                "sa": s["a"], "sb": s["b"], "sc": s["c"],
                "la": l["a"], "lb": l["b"], "lc": l["c"],
            }
        )
        return pdf, spark.createDataFrame(pdf), s, l

    def test_score_column_matches_numpy(self, spark):
        pdf, df, s, _ = self._df(spark)
        expr = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
        col = expr.evaluate({"a": F.col("sa"), "b": F.col("sb"), "c": F.col("sc")})
        got = (
            df.withColumn("score", col)
            .select("id", "score")
            .toPandas()
            .sort_values("id")["score"]
            .to_numpy()
        )
        np.testing.assert_allclose(got, expr.evaluate(s), rtol=1e-12)

    def test_score_column_duckdb_parity(self, spark):
        pdf, df, _, _ = self._df(spark)
        expr = And(Pred("a"), Not(Pred("b")))
        col = expr.evaluate({"a": F.col("sa"), "b": F.col("sb")})
        out = df.select("id", col.alias("score"))
        assert_equivalent(
            out,
            "SELECT id, sa * (1.0 - sb) AS score FROM t",
            t=pdf,
        )

    def test_truth_column_matches_numpy(self, spark):
        pdf, df, _, l = self._df(spark)
        expr = Or(Pred("a"), And(Pred("b"), Pred("c")))
        col = expr.evaluate({"a": F.col("la"), "b": F.col("lb"), "c": F.col("lc")})
        got = (
            df.withColumn("t", col)
            .select("id", "t")
            .toPandas()
            .sort_values("id")["t"]
            .to_numpy()
        )
        np.testing.assert_array_equal(got, expr.evaluate(l))


def _multipred_sets():
    from repro.simulate.datasets import night_street_multipred, synthetic_multipred

    return night_street_multipred(scale=0.02), synthetic_multipred(n=5000)


class TestMultipredDataset:
    """Fig. 6's sets build ``proxy`` and ``label`` through ``evaluate``;
    these check them against the rule written out by hand."""

    def test_combined_column_is_product(self):
        for ds in _multipred_sets():
            pdf = ds.pdf
            np.testing.assert_array_equal(pdf["proxy"], pdf["proxy_0"] * pdf["proxy_1"])

    def test_joint_label_is_conjunction(self):
        for ds in _multipred_sets():
            pdf = ds.pdf
            assert pdf["label"].dtype == np.int64
            np.testing.assert_array_equal(pdf["label"], pdf["label_0"] & pdf["label_1"])

    def test_joint_positive_rate_near_paper(self):
        from repro.simulate.datasets import night_street_multipred

        ds = night_street_multipred(scale=0.05)
        assert ds.pdf["label"].mean() == pytest.approx(0.17, abs=0.02)


@pytest.mark.spark
class TestMultipredQuery:
    def test_query_on_evaluated_columns(self, spark):
        """ABAE over ``evaluate``'s Spark Columns (the combined proxy and
        the joint label) answers exactly as over the dataset's
        precomputed ``proxy`` and ``label`` columns."""
        from repro.core.abae import abae_query
        from repro.simulate.datasets import night_street_multipred
        from repro.simulate.oracles import SimulatedOracle

        expr = And(Pred("cars"), Pred("red_light"))
        df = night_street_multipred(scale=0.02).to_spark(spark)
        df = df.withColumn(
            "combined", expr.evaluate({"cars": F.col("proxy_0"), "red_light": F.col("proxy_1")})
        ).withColumn(
            "joint", expr.evaluate({"cars": F.col("label_0"), "red_light": F.col("label_1")})
        )
        got = abae_query(
            df, n_budget=600, oracle=SimulatedOracle("joint"), proxy_col="combined", seed=3
        )
        want = abae_query(df, n_budget=600, oracle=SimulatedOracle("label"), seed=3)
        assert got.estimate == want.estimate
        assert got.oracle_calls == want.oracle_calls <= 600
        for (gv, gl), (wv, wl) in zip(got.samples, want.samples, strict=True):
            np.testing.assert_array_equal(gv, wv)
            np.testing.assert_array_equal(gl, wl)
