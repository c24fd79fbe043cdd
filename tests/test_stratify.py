"""Tests for core.stratify — quantile stratification, with DuckDB
ntile parity via the correctness oracle."""
from __future__ import annotations

import warnings

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core import stratify
from repro.core.stratify import add_stratum, strata_arrays, stratify_indices
from repro.oracle import assert_equivalent


class TestStratifyIndices:
    def test_partition_covers_everything(self):
        rng = np.random.default_rng(0)
        s = stratify_indices(rng.random(1000), 5)
        assert s.shape == (1000,)
        assert set(np.unique(s)) == set(range(5))

    def test_ntile_sizes(self):
        # 13 records into 5 strata: first 3 strata get 3, the rest 2.
        s = stratify_indices(np.arange(13), 5)
        counts = np.bincount(s, minlength=5)
        np.testing.assert_array_equal(counts, [3, 3, 3, 2, 2])

    def test_monotone_in_score(self):
        scores = np.array([0.9, 0.1, 0.5, 0.3, 0.7, 0.2])
        s = stratify_indices(scores, 3)
        order = np.argsort(scores)
        assert np.all(np.diff(s[order]) >= 0)

    def test_k_one_single_stratum(self):
        assert set(stratify_indices(np.random.default_rng(1).random(50), 1)) == {0}

    def test_k_equals_n(self):
        s = stratify_indices(np.arange(6, dtype=float), 6)
        np.testing.assert_array_equal(s, np.arange(6))

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            stratify_indices(np.ones(5), 0)

    def test_tiebreak_by_id_is_deterministic(self):
        scores = np.zeros(10)
        s1 = stratify_indices(scores, 2, ids=np.arange(10))
        s2 = stratify_indices(scores, 2, ids=np.arange(10))
        np.testing.assert_array_equal(s1, s2)
        # ids 0-4 sort first -> stratum 0
        np.testing.assert_array_equal(s1, [0] * 5 + [1] * 5)

    @given(st.integers(1, 10), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_property_balanced_sizes(self, k, n):
        rng = np.random.default_rng(n * 31 + k)
        s = stratify_indices(rng.random(n), k)
        counts = np.bincount(s, minlength=k)
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1


class TestStrataArrays:
    def test_preserves_pairs(self):
        rng = np.random.default_rng(2)
        scores = rng.random(100)
        values = rng.random(100)
        labels = (rng.random(100) < 0.5).astype(int)
        strata = strata_arrays(scores, values, labels, 4)
        assert sum(v.size for v, _ in strata) == 100
        assert sum(l.sum() for _, l in strata) == labels.sum()

    def test_values_follow_their_records(self):
        scores = np.array([0.1, 0.9])
        values = np.array([10.0, 20.0])
        labels = np.array([1, 1])
        strata = strata_arrays(scores, values, labels, 2)
        assert strata[0][0][0] == 10.0
        assert strata[1][0][0] == 20.0


@pytest.mark.spark
class TestSparkStratification:
    def _frame(self, spark, n=500, seed=0):
        rng = np.random.default_rng(seed)
        pdf = pd.DataFrame(
            {
                "id": np.arange(n, dtype=np.int64),
                "proxy": rng.random(n),
                "value": rng.random(n),
            }
        )
        return pdf, spark.createDataFrame(pdf)

    def test_matches_numpy_ntile(self, spark):
        pdf, df = self._frame(spark)
        got = add_stratum(df, 5).select("id", "stratum").toPandas()
        got = got.sort_values("id").reset_index(drop=True)
        expected = stratify_indices(pdf["proxy"].to_numpy(), 5, pdf["id"].to_numpy())
        np.testing.assert_array_equal(got["stratum"].to_numpy(), expected)

    def test_duckdb_ntile_parity(self, spark):
        """The Spark stratification must equal DuckDB's ntile — caught
        by the result-equality oracle, not just 'it ran'."""
        pdf, df = self._frame(spark, n=437)
        out = add_stratum(df, 7).select("id", "stratum")
        assert_equivalent(
            out,
            "SELECT id, ntile(7) OVER (ORDER BY proxy, id) - 1 AS stratum FROM t",
            t=pdf,
        )

    def test_stratum_count_parity_with_duckdb(self, spark):
        pdf, df = self._frame(spark, n=321)
        out = (
            add_stratum(df, 4)
            .groupBy("stratum")
            .agg(F.count(F.lit(1)).alias("n"))
        )
        assert_equivalent(
            out,
            """
            SELECT stratum, count(*) AS n FROM (
              SELECT ntile(4) OVER (ORDER BY proxy, id) - 1 AS stratum FROM t
            ) GROUP BY stratum
            """,
            t=pdf,
        )


def _proxies(case: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if case == "heavy-ties":
        return rng.integers(0, 3, n) / 2.0
    if case == "boundary-ties":
        return np.round(rng.random(n), 2)
    if case == "boundary-ties-4dp":
        return np.round(rng.random(n), 4)
    return rng.random(n)


@pytest.mark.spark
class TestSparkStratificationEdgeCases:
    """``add_stratum`` equals DuckDB's ``ntile`` on ties, NaN, tiny and
    many-partition frames. Frames of 30,000 rows are large enough for
    the bracketed keys; smaller ones collect their (proxy, id) pairs
    whole. Only heavy ties on a large frame take the ntile window."""

    @pytest.mark.parametrize(
        "case,n,k,parts,fallback",
        [
            ("continuous", 30_000, 5, 4, False),
            ("heavy-ties", 600, 5, 4, False),
            ("heavy-ties", 30_000, 5, 4, True),
            ("boundary-ties", 3_000, 5, 4, False),
            ("boundary-ties-4dp", 30_000, 5, 4, False),
            ("nan", 30_000, 5, 4, False),
            ("nan", 500, 5, 4, False),
            ("continuous", 3, 5, 2, False),
            ("continuous", 5, 5, 2, False),
            ("continuous", 30_000, 6, 7, False),
        ],
        ids=[
            "continuous", "heavy-ties-small", "heavy-ties", "boundary-ties",
            "boundary-ties-4dp", "nan", "nan-small", "n<k", "n==k", "7-partitions",
        ],
    )
    def test_duckdb_ntile_parity(self, spark, case, n, k, parts, fallback):
        rng = np.random.default_rng(n + k)
        ids = rng.permutation(n).astype(np.int64)
        pdf = pd.DataFrame({"id": ids, "proxy": _proxies(case, n, rng)})
        df = spark.createDataFrame(pdf).repartition(parts)
        if case == "nan":
            nan = F.when(F.col("id") % 2_999 == 7, F.lit(float("nan")))
            df = df.withColumn("proxy", nan.otherwise(F.col("proxy")))
            assert df.filter(F.isnan("proxy")).count() > 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            out = add_stratum(df, k).select("id", "stratum")
        assert sum(w.category is RuntimeWarning for w in caught) == fallback
        assert_equivalent(
            out,
            f"SELECT id, ntile({k}) OVER (ORDER BY proxy, id) - 1 AS stratum FROM t",
            t=df,
        )

    def test_missed_bracket_falls_back(self, spark, monkeypatch):
        """A bracket that misses its key (here inverted, so its band is
        empty) is caught: a warning, and the strata of the ntile window."""
        rng = np.random.default_rng(3)
        n = 30_000
        df = spark.createDataFrame(pd.DataFrame({"id": np.arange(n), "proxy": rng.random(n)}))
        monkeypatch.setattr(stratify, "_DELTA", -0.01)
        with pytest.warns(RuntimeWarning, match="outside its bracket"):
            got = add_stratum(df, 5).select("id", "stratum").toPandas()
        w = Window.orderBy("proxy", "id")
        ref = df.select("id", (F.ntile(5).over(w) - 1).alias("stratum")).toPandas()

        def by_id(frame):
            return frame.sort_values("id").reset_index(drop=True)

        pd.testing.assert_frame_equal(by_id(got), by_id(ref))

    def test_null_proxy_rejected(self, spark):
        df = spark.range(100).select("id", F.when(F.col("id") != 40, F.rand(1)).alias("proxy"))
        with pytest.raises(ValueError, match="null"):
            add_stratum(df, 5)
