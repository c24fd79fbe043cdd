"""Integration tests for the end-to-end Spark query path (core.abae):
budget metering, correctness against the DuckDB oracle, and parity
with the numpy kernel's statistics."""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core import abae
from repro.core.abae import abae_query, uniform_query
from repro.core.allocation import optimal_allocation, stage2_counts
from repro.core.bootstrap import bootstrap_ci
from repro.core.estimator import combine, plugin_estimates
from repro.core.sampler import split_budget
from repro.core.stratify import add_stratum
from repro.oracle import assert_equivalent
from repro.simulate import datasets as D
from repro.simulate.oracles import BudgetExceededError, SimulatedOracle

pytestmark = pytest.mark.spark


@pytest.fixture(scope="module")
def ns_df(spark, night_street):
    df = night_street.to_spark(spark).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def ns_big_df(spark):
    """night_street at 48,657 rows, large enough for bracketed strata
    keys (a smaller frame collects its (proxy, id) pairs whole)."""
    df = D.load("night_street", scale=0.05).to_spark(spark).persist()
    df.count()
    yield df
    df.unpersist()


class TestAbaeQuery:
    def test_budget_respected(self, ns_df, night_street):
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=800, oracle=oracle, seed=1)
        assert res.oracle_calls <= 800
        assert oracle.calls == res.oracle_calls

    def test_oracle_touches_only_sampled_rows(self, ns_df, night_street):
        """The defining property: far fewer oracle calls than records."""
        oracle = SimulatedOracle("label")
        abae_query(ns_df, n_budget=500, oracle=oracle, seed=2)
        assert oracle.calls <= 500 < len(night_street.pdf)

    def test_estimate_near_truth(self, ns_df, night_street):
        truth = night_street.ground_truth()
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=2000, oracle=oracle, seed=3)
        assert res.estimate == pytest.approx(truth, rel=0.2)

    def test_ci_contains_estimate(self, ns_df):
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=1000, oracle=oracle, seed=4, n_boot=300)
        lo, hi = res.ci
        assert lo <= res.estimate <= hi

    def test_deterministic_in_seed(self, ns_df):
        r1 = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=5)
        r2 = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=5)
        assert r1.estimate == r2.estimate

    def test_different_seeds_differ(self, ns_df):
        r1 = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=6)
        r2 = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=7)
        assert r1.estimate != r2.estimate

    def test_allocation_is_simplex(self, ns_df):
        res = abae_query(ns_df, n_budget=600, oracle=SimulatedOracle("label"), seed=8)
        assert res.allocation.sum() == pytest.approx(1.0)
        assert np.all(res.allocation >= 0)

    def test_samples_match_call_count(self, ns_df):
        res = abae_query(ns_df, n_budget=700, oracle=SimulatedOracle("label"), seed=9)
        assert sum(v.size for v, _ in res.samples) == res.oracle_calls

    def test_unbiased_across_seeds(self, ns_df, night_street):
        truth = night_street.ground_truth()
        ests = [
            abae_query(
                ns_df, n_budget=1000, oracle=SimulatedOracle("label"), seed=s
            ).estimate
            for s in range(12)
        ]
        assert np.mean(ests) == pytest.approx(truth, rel=0.1)


    def test_budget_below_strata_rejected(self, ns_df):
        """N < K cannot pilot every stratum: rejected before any call."""
        oracle = SimulatedOracle("label")
        with pytest.raises(ValueError):
            abae_query(ns_df, n_budget=3, oracle=oracle, k=5, seed=1)
        assert oracle.calls == 0

    def test_empty_table_rejected(self, ns_df):
        """An empty table is an error, not the 0.0 of "no positives"."""
        oracle = SimulatedOracle("label")
        with pytest.raises(ValueError):
            abae_query(ns_df.limit(0), n_budget=500, oracle=oracle, seed=1)
        assert oracle.calls == 0

    @pytest.mark.parametrize("budget", [100, 700])
    def test_oracle_limit_enforced(self, ns_df, budget):
        """An oracle budget below the query's plan raises before the
        stage that would exceed it labels a row: 100 stops Stage 1 (500
        rows), 700 lets Stage 1 run and stops Stage 2."""
        oracle = SimulatedOracle("label", budget=budget)
        with pytest.raises(BudgetExceededError):
            abae_query(ns_df, n_budget=1000, oracle=oracle, seed=1)
        assert oracle.calls == (0 if budget < 500 else 500)
        assert oracle.calls <= budget

    def test_null_proxy_rejected(self, ns_df):
        """Spark orders null proxies first, DuckDB and the numpy strata
        last: rejected before any call."""
        oracle = SimulatedOracle("label")
        nulled = ns_df.withColumn("proxy", F.when(F.col("id") != 17, F.col("proxy")))
        with pytest.raises(ValueError, match="null"):
            abae_query(nulled, n_budget=500, oracle=oracle, seed=1)
        assert oracle.calls == 0


def _reference_abae(df, n_budget, k, seed):
    """The unfiltered query: ntile strata, a rank window over every row
    of each stratum, and the two stages as prefixes of that ranking."""
    return _reference_sample(add_stratum(df, k), n_budget, k, seed)


def _reference_sample(stratified, n_budget, k, seed):
    """:func:`_reference_abae` on a frame that already has its strata."""
    w = Window.partitionBy("stratum").orderBy(F.xxhash64(F.col("id"), F.lit(seed)), F.col("id"))
    ranked = (
        stratified
        .withColumn("_rank", F.row_number().over(w))
        .select("stratum", "_rank", "value", "label")
        .toPandas()
        .sort_values(["stratum", "_rank"])
    )
    n1_per, n2 = split_budget(n_budget, k, 0.5)
    strata = [ranked[ranked["stratum"] == i] for i in range(k)]
    pilot = [plugin_estimates(s["value"].iloc[:n1_per], s["label"].iloc[:n1_per]) for s in strata]
    t_hat = optimal_allocation(
        np.array([e.p_hat for e in pilot]), np.array([e.sigma_hat for e in pilot])
    )
    extra = stage2_counts(t_hat, n2)
    return [
        (s["value"].to_numpy(dtype=float)[: n1_per + e], s["label"].to_numpy()[: n1_per + e])
        for s, e in zip(strata, extra)
    ]


def _assert_same_sample(res, ref, n_budget):
    """The query's result is Algorithm 1 over the reference ranking
    ``ref``: the same rows and labels, the Stage-1 estimates of the
    first N₁/K ranks, their allocation, the final estimates of the
    samples, the calls and the estimate."""
    for (v, l), (rv, rl) in zip(res.samples, ref):
        np.testing.assert_array_equal(v, rv)
        np.testing.assert_array_equal(l, rl)
    n1_per, _ = split_budget(n_budget, len(ref), 0.5)
    pilot = [plugin_estimates(v[:n1_per], l[:n1_per]) for v, l in ref]
    assert res.stage1 == pilot
    np.testing.assert_array_equal(
        res.allocation,
        optimal_allocation(
            np.array([e.p_hat for e in pilot]), np.array([e.sigma_hat for e in pilot])
        ),
    )
    assert res.final == [plugin_estimates(v, l) for v, l in res.samples]
    assert res.oracle_calls == sum(v.size for v, _ in ref)
    final = [plugin_estimates(v, l) for v, l in ref]
    assert res.estimate == combine(
        np.array([e.p_hat for e in final]), np.array([e.mu_hat for e in final])
    )


class TestSampleIdentity:
    """The hash-prefix candidate path returns exactly the sample of the
    unfiltered ranking: same rows per stratum in the same order, same
    labels, estimate and oracle calls."""

    @pytest.mark.parametrize(
        "n_budget,seed",
        [
            (600, 0),
            (2000, 1),
            (2000, 2),
            (1000, 3),
            # n1_per + N2 covers whole strata (3,892 rows each): no prefilter.
            (8000, 4),
        ],
    )
    def test_abae_matches_unfiltered_ranking(self, ns_df, n_budget, seed):
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=n_budget, oracle=oracle, seed=seed)
        _assert_same_sample(res, _reference_abae(ns_df, n_budget, 5, seed), n_budget)

    @pytest.mark.parametrize(
        "keep",
        [pytest.param(1 / 3, id="stage2-short"), pytest.param(1 / 12, id="stage1-short")],
    )
    def test_candidate_shortfall_falls_back(self, ns_df, monkeypatch, keep):
        """A threshold that keeps too few candidates (1/3 of the draws
        starves Stage 2; 1/12 starves Stage 1 too) still returns the
        full sample, labeling no row twice."""
        monkeypatch.setattr(
            abae, "_hash_threshold", lambda m, size: int(keep * m / size * 2.0**64) - 2**63
        )
        oracle = SimulatedOracle("label")
        res = abae_query(ns_df, n_budget=2000, oracle=oracle, seed=5)
        _assert_same_sample(res, _reference_abae(ns_df, 2000, 5, 5), 2000)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_matches_global_window(self, ns_df, seed):
        w = Window.orderBy(F.xxhash64(F.col("id"), F.lit(seed)), F.col("id"))
        ref = (
            ns_df.withColumn("_rank", F.row_number().over(w))
            .filter(F.col("_rank") <= 700)
            .orderBy("_rank")
            .toPandas()
        )
        oracle = SimulatedOracle("label")
        res = uniform_query(ns_df, n_budget=700, oracle=oracle, seed=seed)
        (v, l), = res.samples
        np.testing.assert_array_equal(v, ref["value"].to_numpy(dtype=float))
        np.testing.assert_array_equal(l, ref["label"].to_numpy())
        assert res.estimate == plugin_estimates(ref["value"], ref["label"]).mu_hat
        assert res.oracle_calls == oracle.calls == 700


class TestWindowStrataIdentity:
    """``abae_query`` against a reference whose strata come from the
    ``ntile`` window itself, not from ``add_stratum``, on a frame large
    enough for the bracketed keys."""

    @pytest.mark.parametrize("n_budget", [2000, 8000])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_matches_ntile_window(self, ns_big_df, n_budget, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no ntile fallback
            res = abae_query(
                ns_big_df, n_budget=n_budget, oracle=SimulatedOracle("label"), seed=seed,
                n_boot=200,
            )
        stratum = F.ntile(5).over(Window.orderBy("proxy", "id")) - 1
        ref = _reference_sample(ns_big_df.withColumn("stratum", stratum), n_budget, 5, seed)
        _assert_same_sample(res, ref, n_budget)
        assert res.ci == bootstrap_ci(ref, np.random.default_rng(seed + 7), n_boot=200)

    def test_no_stage_runs_shuffle_partitions_tasks(self, spark, ns_big_df):
        """The query's jobs (the stratifying aggregates and the
        candidate collect) shuffle into no ``spark.sql.shuffle.partitions``
        tasks: the candidates are a filter of the table, collected as they
        are read."""
        sc = spark.sparkContext
        group = "test-abae-query-tasks"
        sc.setJobGroup(group, "abae_query")
        try:
            abae_query(ns_big_df, n_budget=2000, oracle=SimulatedOracle("label"), seed=1)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = sc.statusTracker()
        tasks = [
            tracker.getStageInfo(stage).numTasks
            for job in tracker.getJobIdsForGroup(group)
            for stage in tracker.getJobInfo(job).stageIds
        ]
        assert tasks
        assert int(spark.conf.get("spark.sql.shuffle.partitions")) not in tasks


@pytest.mark.parametrize("query", [abae_query, uniform_query])
class TestMetering:
    def test_calls_are_per_query(self, ns_df, query):
        """Two queries on one oracle: each reports its own calls, not
        the oracle's running total."""
        oracle = SimulatedOracle("label")
        r1 = query(ns_df, n_budget=600, oracle=oracle, seed=1)
        r2 = query(ns_df, n_budget=500, oracle=oracle, seed=2)
        assert r2.oracle_calls == sum(v.size for v, _ in r2.samples)
        assert r1.oracle_calls + r2.oracle_calls == oracle.calls

    def test_double_metering_raises(self, ns_df, query):
        """An oracle that meters each labeled row twice: the query
        raises instead of reporting those calls."""
        oracle = SimulatedOracle("label")
        call = oracle.call

        def call_twice(values):
            oracle.charge(len(values))
            return call(values)

        oracle.call = call_twice
        with pytest.raises(RuntimeError, match="metered"):
            query(ns_df, n_budget=600, oracle=oracle, seed=3)


    @pytest.mark.parametrize("n_boot, alpha", [(100, 0.0), (100, 1.0), (100, 1.5), (-1, 0.05)])
    def test_bad_bootstrap_rejected_before_any_call(self, spark, ns_df, query, n_boot, alpha):
        """Bootstrap settings with no percentile interval are rejected
        before a row is labeled or a Spark job runs."""
        oracle = SimulatedOracle("label")
        sc = spark.sparkContext
        group = f"test-query-bad-bootstrap-{query.__name__}-{n_boot}-{alpha}"
        sc.setJobGroup(group, "bad bootstrap settings")
        try:
            with pytest.raises(ValueError, match="n_boot"):
                query(ns_df, n_budget=600, oracle=oracle, seed=1, n_boot=n_boot, alpha=alpha)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert oracle.calls == 0
        assert sc.statusTracker().getJobIdsForGroup(group) == []


class TestUniformQuery:
    def test_budget_exact(self, ns_df):
        oracle = SimulatedOracle("label")
        res = uniform_query(ns_df, n_budget=900, oracle=oracle, seed=1)
        assert res.oracle_calls == 900

    def test_oracle_limit_enforced(self, ns_df):
        oracle = SimulatedOracle("label", budget=100)
        with pytest.raises(BudgetExceededError):
            uniform_query(ns_df, n_budget=900, oracle=oracle, seed=1)
        assert oracle.calls == 0

    def test_estimate_near_truth(self, ns_df, night_street):
        truth = night_street.ground_truth()
        res = uniform_query(
            ns_df, n_budget=3000, oracle=SimulatedOracle("label"), seed=2
        )
        assert res.estimate == pytest.approx(truth, rel=0.25)

    def test_runs_from_a_thread(self, ns_df):
        """A thread has no active session; the query runs on the frame's
        session and labels its sample on the calling thread."""

        def query():
            return uniform_query(ns_df, n_budget=300, oracle=SimulatedOracle("label"), seed=3)

        with ThreadPoolExecutor(max_workers=1) as pool:
            res = pool.submit(query).result(timeout=300)
        assert res.oracle_calls == 300
        assert res.estimate == query().estimate

    def test_matches_duckdb_on_same_sample(self, spark, night_street):
        """The uniform sample's aggregate must equal DuckDB's answer
        over the identical hash-selected sample — result equality, not
        just plausibility."""
        pdf = night_street.pdf
        df = night_street.to_spark(spark)
        w_expr = F.xxhash64(F.col("id"), F.lit(11))
        sampled = (
            df.withColumn("_h", w_expr)
            .orderBy("_h", "id")
            .limit(500)
            .select("id", "value", "label")
        )
        agg = sampled.filter(F.col("label") == 1).agg(
            F.avg("value").alias("mu"), F.count(F.lit(1)).alias("n_pos")
        )
        sample_pdf = sampled.toPandas()
        assert_equivalent(
            agg,
            "SELECT avg(value) AS mu, count(*) AS n_pos FROM s WHERE label = 1",
            s=sample_pdf,
        )


class TestExhaustiveGroundTruthParity:
    """The μ that every estimator targets, computed by Spark, must
    equal DuckDB's answer — on all six surrogates."""

    @pytest.mark.parametrize(
        "name",
        [
            "night_street",
            "taipei",
            "celeba",
            "amazon_posters",
            "trec05p",
            "amazon_office",
        ],
    )
    def test_ground_truth(self, spark, real_datasets, name):
        ds = real_datasets[name]
        pdf = ds.pdf[["id", "value", "label"]].head(5000)
        df = spark.createDataFrame(pdf)
        agg = df.filter(F.col("label") == 1).agg(F.avg("value").alias("mu"))
        assert_equivalent(
            agg, "SELECT avg(value) AS mu FROM t WHERE label = 1", t=pdf
        )
