"""Tests for core.estimator — plug-in estimates and the combined
estimator, including DuckDB parity for per-stratum statistics."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.estimator import combine, group_estimates, plugin_estimates, true_strata_params
from repro.core.stratify import add_stratum, strata_arrays
from repro.oracle import assert_equivalent


class TestPluginEstimates:
    def test_basic(self):
        est = plugin_estimates(np.array([1.0, 2.0, 3.0, 99.0]), np.array([1, 1, 1, 0]))
        assert est.n_draws == 4
        assert est.n_pos == 3
        assert est.p_hat == pytest.approx(0.75)
        assert est.mu_hat == pytest.approx(2.0)
        assert est.sigma_hat == pytest.approx(1.0)

    def test_no_positives_means_zero(self):
        est = plugin_estimates(np.array([5.0, 6.0]), np.array([0, 0]))
        assert est.p_hat == 0.0
        assert est.mu_hat == 0.0
        assert est.sigma_hat == 0.0

    def test_single_positive_sigma_zero(self):
        est = plugin_estimates(np.array([5.0]), np.array([1]))
        assert est.sigma_hat == 0.0
        assert est.mu_hat == 5.0

    def test_empty(self):
        est = plugin_estimates(np.array([]), np.array([]))
        assert est.n_draws == 0 and est.p_hat == 0.0

    def test_negatives_values_ignored(self):
        a = plugin_estimates(np.array([1.0, -999.0]), np.array([1, 0]))
        b = plugin_estimates(np.array([1.0, 999.0]), np.array([1, 0]))
        assert a.mu_hat == b.mu_hat == 1.0


class TestGroupEstimates:
    G = 3

    @staticmethod
    def _assert_matches_plugin(bins, n_groups):
        est = group_estimates(bins, n_groups)
        assert est.n_pos.shape == est.p_hat.shape == est.sigma_hat.shape == (len(bins), n_groups)
        for b, (v, grps) in enumerate(bins):
            for g in range(n_groups):
                ref = plugin_estimates(v, grps == g)
                assert est.n_pos[b, g] == ref.n_pos
                np.testing.assert_allclose(
                    [est.p_hat[b, g], est.mu_hat[b, g], est.sigma_hat[b, g]],
                    [ref.p_hat, ref.mu_hat, ref.sigma_hat],
                    rtol=1e-12, atol=1e-12,
                )

    def test_matches_plugin_estimates(self):
        rng = np.random.default_rng(0)
        bins = []
        for size in (1, 7, 40, 500, 3000):
            grps = rng.integers(-1, self.G, size)
            bins.append((rng.normal(50.0, 10.0, size), grps))
        self._assert_matches_plugin(bins, self.G)

    def test_edge_cases(self):
        bins = [
            (np.array([]), np.array([], dtype=np.int64)),  # empty bin
            (np.array([4.0, 5.0]), np.array([-1, -1])),  # only draws in no group
            # group 0 has one positive, group 1 two, group 2 none.
            (np.array([9.0, 1.0, 2.0, 8.0]), np.array([0, 1, 1, -1])),
        ]
        self._assert_matches_plugin(bins, self.G)
        est = group_estimates(bins, self.G)
        np.testing.assert_array_equal(est.n_pos, [[0, 0, 0], [0, 0, 0], [1, 2, 0]])
        assert est.mu_hat[2, 0] == 9.0 and est.sigma_hat[2, 0] == 0.0
        assert est.mu_hat[2, 2] == 0.0 and est.p_hat[2, 2] == 0.0

    def test_keys_outside_groups_count_for_none(self):
        """A key ≥ G belongs to no queried group and does not spill into
        the next bin."""
        bins = [(np.array([1.0, 2.0, 3.0]), np.array([0, 3, 7])), (np.array([5.0]), np.array([0]))]
        self._assert_matches_plugin(bins, self.G)

    def test_extra_arrays_ignored(self):
        v, grps = np.array([1.0, 3.0]), np.array([1, 1])
        a = group_estimates([(v, grps, np.array([10, 11]))], self.G)
        b = group_estimates([(v, grps)], self.G)
        np.testing.assert_array_equal(a.sigma_hat, b.sigma_hat)


class TestCombine:
    def test_weighted_average(self):
        assert combine(np.array([0.2, 0.6]), np.array([1.0, 2.0])) == pytest.approx(
            (0.2 * 1 + 0.6 * 2) / 0.8
        )

    def test_all_zero_p(self):
        assert combine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_single_stratum_passthrough(self):
        assert combine(np.array([0.5]), np.array([7.0])) == 7.0

    def test_in_convex_hull_of_means(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(0, 1, 4)
            mu = rng.normal(0, 5, 4)
            c = combine(p, mu)
            assert mu.min() - 1e-9 <= c <= mu.max() + 1e-9


class TestTrueStrataParams:
    def test_matches_exhaustive(self, toy_strata):
        p, sigma, mu = true_strata_params(toy_strata)
        for k, (vals, labs) in enumerate(toy_strata):
            pos = vals[labs == 1]
            assert p[k] == pytest.approx(labs.mean())
            assert mu[k] == pytest.approx(pos.mean())
            assert sigma[k] == pytest.approx(pos.std(ddof=1))

    def test_combined_truth_equals_population_mean(self, toy_strata):
        """Σ p_k μ_k / Σ p_k over equal-sized strata equals the overall
        positive-population mean — the estimator's target identity."""
        p, _, mu = true_strata_params(toy_strata)
        all_v = np.concatenate([v for v, _ in toy_strata])
        all_l = np.concatenate([l for _, l in toy_strata])
        assert combine(p, mu) == pytest.approx(float(all_v[all_l == 1].mean()))


@pytest.mark.spark
class TestStrataStatsDuckDBParity:
    """Per-stratum (n, positives, mean, std of positives) computed by
    Spark must equal DuckDB's answer over the same stratification."""

    def test_per_stratum_stats(self, spark, night_street):
        pdf = night_street.pdf.head(3000).copy()
        df = add_stratum(spark.createDataFrame(pdf), 5)
        pos_val = F.when(F.col("label") == 1, F.col("value"))
        out = df.groupBy("stratum").agg(
            F.count(F.lit(1)).alias("n"),
            F.sum("label").alias("n_pos"),
            F.avg(pos_val).alias("mu"),
            F.stddev_samp(pos_val).alias("sigma"),
        )
        assert_equivalent(
            out,
            """
            SELECT stratum, count(*) AS n, sum(label) AS n_pos,
                   avg(CASE WHEN label = 1 THEN value END) AS mu,
                   stddev_samp(CASE WHEN label = 1 THEN value END) AS sigma
            FROM (
              SELECT *, ntile(5) OVER (ORDER BY proxy, id) - 1 AS stratum FROM t
            ) GROUP BY stratum
            """,
            t=pdf,
        )

    def test_numpy_strata_params_match_spark(self, spark, night_street):
        pdf = night_street.pdf.head(3000)
        strata = strata_arrays(
            pdf["proxy"].to_numpy(),
            pdf["value"].to_numpy(),
            pdf["label"].to_numpy(),
            5,
            ids=pdf["id"].to_numpy(),
        )
        p_np, sig_np, mu_np = true_strata_params(strata)
        df = add_stratum(spark.createDataFrame(pdf), 5)
        pos_val = F.when(F.col("label") == 1, F.col("value"))
        rows = (
            df.groupBy("stratum")
            .agg(
                (F.sum("label") / F.count(F.lit(1))).alias("p"),
                F.avg(pos_val).alias("mu"),
                F.stddev_samp(pos_val).alias("sigma"),
            )
            .collect()
        )
        for r in rows:
            k = int(r["stratum"])
            assert r["p"] == pytest.approx(p_np[k])
            assert (r["mu"] or 0.0) == pytest.approx(mu_np[k])
            assert (r["sigma"] or 0.0) == pytest.approx(sig_np[k], abs=1e-9)
