"""Tests for simulate.oracles — invocation metering, the heart of the
paper's cost model."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

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


@pytest.mark.spark
class TestSparkOracle:
    def test_counts_executor_invocations(self, spark, night_street):
        df = night_street.to_spark(spark).limit(0)  # build schema
        df = night_street.to_spark(spark)
        o = SimulatedOracle("label")
        sampled = df.filter(F.col("id") < 500)
        out = o.apply(sampled).agg(F.sum("oracle_label")).collect()
        assert o.calls == 500
        assert out[0][0] == int(night_street.pdf.head(500)["label"].sum())

    def test_label_passthrough(self, spark, night_street):
        df = night_street.to_spark(spark)
        o = SimulatedOracle("label")
        pdf = (
            o.apply(df.filter(F.col("id") < 100))
            .select("id", "oracle_label")
            .toPandas()
            .sort_values("id")
        )
        want = night_street.pdf.head(100)["label"].to_numpy()
        np.testing.assert_array_equal(pdf["oracle_label"].to_numpy(), want)

    def test_combined_local_and_spark_counts(self, spark, night_street):
        df = night_street.to_spark(spark)
        o = SimulatedOracle("label")
        o.call(np.ones(7))
        # Consume the oracle column: a bare .count() would let Catalyst
        # prune the (unused) UDF and the oracle would never run.
        o.apply(df.filter(F.col("id") < 13)).agg(F.sum("oracle_label")).collect()
        assert o.calls == 20

    def test_udf_built_once_per_accumulator(self, spark, night_street):
        """apply() reuses one UDF, which keeps metering every apply;
        reset() drops it with the count."""
        df = night_street.to_spark(spark)
        o = SimulatedOracle("label")
        udf = o.spark_udf(spark)
        for _ in range(2):
            o.apply(df.filter(F.col("id") < 13)).agg(F.sum("oracle_label")).collect()
        assert o.spark_udf(spark) is udf
        assert o.calls == 26
        o.reset()
        assert o.calls == 0
        assert o.spark_udf(spark) is not udf

    def test_catalyst_prunes_unconsumed_oracle(self, spark, night_street):
        """Documented behaviour: an oracle column nobody reads is
        pruned by the optimizer and costs zero invocations."""
        df = night_street.to_spark(spark)
        o = SimulatedOracle("label")
        o.apply(df.filter(F.col("id") < 13)).count()
        assert o.calls == 0
