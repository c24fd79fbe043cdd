"""Tests for simulate.datasets — the Table-2 surrogates and synthetic
sets: determinism, schema, rates, and ground truths."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.simulate import datasets as D

TARGET_RATES = {
    "night_street": 0.05,
    "taipei": 0.15,
    "celeba": 0.15,
    "amazon_posters": 0.10,
    "trec05p": 0.25,
    "amazon_office": 0.20,
}


@pytest.mark.parametrize("name", D.REAL_WORLD)
class TestRealWorldSurrogates:
    def test_deterministic(self, name):
        a = D.load(name, scale=0.01).pdf
        b = D.load(name, scale=0.01).pdf
        pd.testing.assert_frame_equal(a, b)

    def test_schema(self, real_datasets, name):
        pdf = real_datasets[name].pdf
        for col in ("id", "proxy", "value", "label"):
            assert col in pdf.columns

    def test_scaled_size(self, name):
        ds = D.load(name, scale=0.05)
        assert len(ds.pdf) == max(2000, int(D.TABLE2[name].paper_size * 0.05))

    def test_positive_rate_near_target(self, real_datasets, name):
        rate = real_datasets[name].pdf["label"].mean()
        assert rate == pytest.approx(TARGET_RATES[name], abs=0.03)

    def test_proxy_in_unit_interval(self, real_datasets, name):
        proxy = real_datasets[name].pdf["proxy"]
        assert proxy.between(0, 1).all()

    def test_proxy_correlates_with_label(self, real_datasets, name):
        """The proxy must carry signal: mean proxy among positives
        exceeds mean among negatives."""
        pdf = real_datasets[name].pdf
        assert (
            pdf.loc[pdf.label == 1, "proxy"].mean()
            > pdf.loc[pdf.label == 0, "proxy"].mean()
        )

    def test_ground_truth_is_positive_mean(self, real_datasets, name):
        ds = real_datasets[name]
        pos = ds.pdf[ds.pdf.label == 1]
        assert ds.ground_truth() == pytest.approx(pos["value"].mean())

    def test_ids_unique_and_dense(self, real_datasets, name):
        ids = real_datasets[name].pdf["id"]
        assert ids.is_unique
        assert ids.min() == 0 and ids.max() == len(ids) - 1


class TestCountDatasets:
    def test_night_street_positives_have_cars(self, real_datasets):
        pdf = real_datasets["night_street"].pdf
        assert (pdf.loc[pdf.label == 1, "value"] >= 1).all()
        assert (pdf.loc[pdf.label == 0, "value"] == 0).all()

    def test_celeba_binary_statistic(self, real_datasets):
        assert set(real_datasets["celeba"].pdf["value"].unique()) <= {0.0, 1.0}

    def test_ratings_in_range(self, real_datasets):
        for name in ("amazon_posters", "amazon_office"):
            v = real_datasets[name].pdf["value"]
            assert v.between(1, 5).all()

    def test_trec_links_nonnegative(self, real_datasets):
        assert (real_datasets["trec05p"].pdf["value"] >= 0).all()


class TestStrataAccessors:
    def test_strata_partition(self, night_street):
        strata = night_street.strata(5)
        assert sum(v.size for v, _ in strata) == len(night_street.pdf)

    def test_population_roundtrip(self, night_street):
        values, labels = night_street.population()
        assert values.size == labels.size == len(night_street.pdf)

    def test_strata_p_increasing_with_proxy(self, night_street):
        """Quantile stratification by a correlated proxy must give
        (weakly) increasing positive rates across strata."""
        strata = night_street.strata(5)
        ps = [l.mean() for _, l in strata]
        assert all(a <= b + 1e-9 for a, b in zip(ps, ps[1:]))


class TestGroupByDatasets:
    @pytest.mark.parametrize(
        "maker,g",
        [
            (lambda: D.celeba_groupby(scale=0.02), 2),
            (lambda: D.synthetic_groupby_single(n=5000), 4),
            (lambda: D.synthetic_groupby_multi(n=5000), 4),
        ],
    )
    def test_groups_disjoint_and_labeled(self, maker, g):
        ds = maker()
        assert ds.n_groups == g
        grp = ds.pdf["group"]
        assert grp.isin(list(range(-1, g))).all()
        assert (ds.pdf["label"] == (grp >= 0).astype(int)).all()

    def test_single_rates_near_paper(self):
        ds = D.synthetic_groupby_single(n=50000)
        rates = [float((ds.pdf["group"] == g).mean()) for g in range(4)]
        for r, want in zip(rates, (0.033, 0.033, 0.034, 0.035)):
            assert r == pytest.approx(want, abs=0.012)

    def test_multi_rates_near_paper(self):
        ds = D.synthetic_groupby_multi(n=50000)
        rates = [float((ds.pdf["group"] == g).mean()) for g in range(4)]
        for r, want in zip(rates, (0.16, 0.12, 0.09, 0.05)):
            assert r == pytest.approx(want, abs=0.035)

    def test_group_truths_shape(self):
        ds = D.synthetic_groupby_multi(n=5000)
        assert ds.group_truths().shape == (4,)

    def test_group_is_one_of_the_fired_columns(self):
        """With 0/1 scores exactly the 1-columns fire: each row's group
        is one of them, or −1 when none fired, and rows where two fired
        take either with probability ½."""
        patterns = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float)
        scores = np.repeat(patterns, 4000, axis=0)
        pdf = D._groupby_from_scores(scores, np.random.default_rng(0), np.zeros(len(scores)))
        group = pdf["group"].to_numpy()
        fired = scores == 1
        none = ~fired.any(axis=1)
        assert (group[none] == -1).all()
        assert fired[~none, group[~none]].all()
        pair = fired.sum(axis=1) == 2
        first = group[pair] == np.argmax(fired[pair], axis=1)
        assert first.mean() == pytest.approx(0.5, abs=0.02)

    def test_celeba_rates(self):
        ds = D.celeba_groupby(scale=0.05)
        assert float((ds.pdf["group"] == 0).mean()) == pytest.approx(0.04, abs=0.015)
        assert float((ds.pdf["group"] == 1).mean()) == pytest.approx(0.15, abs=0.03)


class TestProxyCombinationDatasets:
    @pytest.mark.parametrize(
        "maker", [lambda: D.trec05p_proxies(scale=0.05), lambda: D.synthetic_combine(n=5000)]
    )
    def test_proxy_columns_present(self, maker):
        ds = maker()
        for c in ds.proxy_cols:
            assert c in ds.pdf.columns
            assert ds.pdf[c].between(0, 1).all()

    def test_junk_proxy_uninformative(self):
        ds = D.synthetic_combine(n=20000)
        junk = ds.pdf[ds.proxy_cols[-1]]
        pos = junk[ds.pdf.label == 1].mean()
        neg = junk[ds.pdf.label == 0].mean()
        assert pos == pytest.approx(neg, abs=0.02)

    def test_informative_proxies_ordered_by_noise(self):
        ds = D.synthetic_combine(n=50000)
        pdf = ds.pdf

        def corr(c):
            return np.corrcoef(pdf[c], pdf["label"])[0, 1]

        assert corr("proxy_0") > corr("proxy_3") + 0.1


@pytest.mark.spark
class TestSparkMaterialization:
    def test_to_spark_roundtrip(self, spark, night_street):
        df = night_street.to_spark(spark)
        assert df.count() == len(night_street.pdf)
        got = set(df.columns)
        assert {"id", "proxy", "value", "label"} <= got

    def test_to_spark_plan_holds_no_local_rows(self, spark, night_street, capsys):
        """The table is checkpointed, not embedded in the plan as a
        LocalTableScan, and its rows come back unchanged."""
        df = night_street.to_spark(spark)
        capsys.readouterr()
        df.explain()
        assert "LocalTableScan" not in capsys.readouterr().out
        got = df.toPandas().sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, night_street.pdf.reset_index(drop=True))

    def test_spark_ground_truth_matches_pandas(self, spark, night_street):
        from pyspark.sql import functions as F

        df = night_street.to_spark(spark)
        mu = (
            df.filter(F.col("label") == 1)
            .agg(F.avg("value").alias("mu"))
            .collect()[0]["mu"]
        )
        assert mu == pytest.approx(night_street.ground_truth())
