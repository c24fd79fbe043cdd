"""Integration: ABAE over TPC-H-lite with the DuckDB result oracle.

The paper's queries are `SELECT AVG(expr) WHERE expensive_pred`. Here
the data is the provided TPC-H-lite generator and the "expensive
predicate" is simulated on top of lineitem (a DNN-grade predicate over
an order's lines), wiring the reproduction into the repo's required
`repro.oracle.assert_equivalent` correctness path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.core.abae import abae_query, uniform_query
from repro.core.sampler import abae_trial, uniform_trial
from repro.core.stratify import strata_arrays
from repro.experiments.metrics import rmse
from repro.oracle import assert_equivalent
from repro.simulate.oracles import SimulatedOracle

pytestmark = pytest.mark.spark


@pytest.fixture(scope="module")
def li_pdf(spark):
    """lineitem at SF=0.01 with a simulated expensive predicate.

    The predicate ("this line is part of a high-urgency shipment", say,
    decided by an expensive model) is simulated as a deterministic
    function of hidden attributes plus noise; the proxy is a cheap
    noisy view of the same signal — exactly the structure of the
    paper's DNN/proxy pairs. The statistic is l_extendedprice.
    """
    li = synth_data.lineitem(spark, sf=0.01).toPandas()
    rng = np.random.default_rng(9)
    n = len(li)
    signal = (
        (li["l_quantity"].to_numpy() > 35).astype(float)
        + (li["l_discount"].to_numpy() > 0.07).astype(float)
        + rng.normal(0, 0.4, n)
    )
    li = li.assign(
        id=np.arange(n, dtype=np.int64),
        label=(signal > 1.0).astype(np.int64),
        proxy=1.0 / (1.0 + np.exp(-(signal - 1.0) * 2.0)),
        value=li["l_extendedprice"].astype(float),
    )
    return li[["id", "proxy", "value", "label", "l_quantity", "l_discount"]]


@pytest.fixture(scope="module")
def li_df(spark, li_pdf):
    df = spark.createDataFrame(li_pdf).localCheckpoint().persist()
    df.count()
    yield df
    df.unpersist()


class TestGroundTruthOracle:
    def test_exhaustive_query_matches_duckdb(self, li_df, li_pdf):
        agg = li_df.filter(F.col("label") == 1).agg(
            F.avg("value").alias("avg_price"), F.count(F.lit(1)).alias("n_pos")
        )
        assert_equivalent(
            agg,
            "SELECT avg(value) AS avg_price, count(*) AS n_pos FROM li WHERE label = 1",
            li=li_pdf,
        )

    def test_sum_and_count_targets(self, li_df, li_pdf):
        """ABAE supports AVG/SUM/COUNT — check the SUM and COUNT ground
        truths the estimator would scale to."""
        agg = li_df.filter(F.col("label") == 1).agg(
            F.sum("value").alias("total"), F.count(F.lit(1)).alias("cnt")
        )
        assert_equivalent(
            agg,
            "SELECT sum(value) AS total, count(*) AS cnt FROM li WHERE label = 1",
            li=li_pdf,
        )


class TestAbaeOnTpch:
    def test_spark_query_budget_and_accuracy(self, li_df, li_pdf):
        truth = float(li_pdf.loc[li_pdf.label == 1, "value"].mean())
        oracle = SimulatedOracle("label")
        res = abae_query(li_df, n_budget=2000, oracle=oracle, seed=1)
        assert res.oracle_calls <= 2000
        assert res.estimate == pytest.approx(truth, rel=0.1)

    def test_abae_beats_uniform_kernel(self, li_pdf):
        truth = float(li_pdf.loc[li_pdf.label == 1, "value"].mean())
        strata = strata_arrays(
            li_pdf["proxy"].to_numpy(),
            li_pdf["value"].to_numpy(),
            li_pdf["label"].to_numpy(),
            5,
            ids=li_pdf["id"].to_numpy(),
        )
        values = li_pdf["value"].to_numpy()
        labels = li_pdf["label"].to_numpy()
        ea = [
            abae_trial(strata, 1000, np.random.default_rng(i)).estimate
            for i in range(150)
        ]
        eu = [
            uniform_trial(values, labels, 1000, np.random.default_rng(i)).estimate
            for i in range(150)
        ]
        assert rmse(ea, truth) <= rmse(eu, truth) * 1.1

    def test_uniform_query_on_tpch(self, li_df, li_pdf):
        truth = float(li_pdf.loc[li_pdf.label == 1, "value"].mean())
        res = uniform_query(li_df, n_budget=3000, oracle=SimulatedOracle("label"), seed=2)
        assert res.estimate == pytest.approx(truth, rel=0.15)


class TestSynthDataOracleWiring:
    """Sanity for the provided TPC-H-lite generators + DuckDB oracle."""

    def test_lineitem_aggregate_parity(self, spark):
        li = synth_data.lineitem(spark, sf=0.005)
        pdf = li.toPandas()
        agg = li.groupBy("l_returnflag").agg(
            F.count(F.lit(1)).alias("n"), F.avg("l_quantity").alias("avg_qty")
        )
        assert_equivalent(
            agg,
            """
            SELECT l_returnflag, count(*) AS n, avg(l_quantity) AS avg_qty
            FROM li GROUP BY l_returnflag
            """,
            li=pdf,
        )

    def test_orders_join_parity(self, spark):
        li = synth_data.lineitem(spark, sf=0.003)
        o = synth_data.orders(spark, sf=0.003)
        li_pdf, o_pdf = li.toPandas(), o.toPandas()
        out = (
            li.join(o, li.l_orderkey == o.o_orderkey)
            .groupBy("o_orderpriority")
            .agg(F.count(F.lit(1)).alias("n"))
        )
        assert_equivalent(
            out,
            """
            SELECT o_orderpriority, count(*) AS n
            FROM li JOIN o ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
            """,
            li=li_pdf,
            o=o_pdf,
        )
