"""Tests for experiments.harness — the Spark-distributed Monte-Carlo
runner and its local fallback."""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pytest
from py4j.protocol import Py4JJavaError

from repro.core.groupby import build_groupby_data
from repro.experiments import harness
from repro.experiments.harness import (
    GROUP_KINDS,
    SCALAR_KINDS,
    estimates_matrix,
    run_group_trials,
    run_trials,
)
from repro.simulate import datasets as D

#: (n_boot, alpha) settings a percentile bootstrap is not defined for.
BAD_BOOTSTRAP = [(0, 0.05), (-1, 0.05), (100, 0.0), (100, 1.0), (100, 1.5)]


def _combined_payload():
    """The "abae_combined" input on the synthetic proxy-combination set:
    every proxy's scores but the summary ``proxy``, values, labels."""
    ds = D.synthetic_combine(n=5000)
    scores = {c: ds.pdf[c].to_numpy(float) for c in ds.proxy_cols if c != "proxy"}
    return (scores, *ds.population())


def _scalar_payload(kind, toy_strata):
    """Each :data:`SCALAR_KINDS` kind's input."""
    if kind == "uniform":
        return tuple(np.concatenate(a) for a in zip(*toy_strata))
    return _combined_payload() if kind == "abae_combined" else toy_strata


def _group_payload(kind):
    """Each :data:`GROUP_KINDS` kind's input (4 groups) on the 5,000-row
    synthetic set of its figure: Fig. 7 for the single-oracle kinds,
    Fig. 8 for the multi-oracle ones."""
    single = kind.endswith("single")
    ds = (D.synthetic_groupby_single if single else D.synthetic_groupby_multi)(n=5000)
    if kind.startswith("uniform"):
        return ds.pdf["value"].to_numpy(float), ds.pdf["group"].to_numpy()
    return build_groupby_data(ds.pdf, list(ds.proxy_cols), 3)


class TestLocalTrials:
    def test_columns_and_rows(self, toy_strata):
        out = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=20)
        assert list(out.columns) == ["trial", "estimate", "lo", "hi", "calls"]
        assert len(out) == 20
        assert (out["calls"] <= 300).all()

    def test_trials_are_distinct(self, toy_strata):
        out = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=20)
        assert out["estimate"].nunique() > 1

    def test_seed_offset_reproducible(self, toy_strata):
        a = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=5, base_seed=7)
        b = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=5, base_seed=7)
        assert a["estimate"].tolist() == b["estimate"].tolist()

    def test_uniform_kind(self, toy_strata):
        values = np.concatenate([v for v, _ in toy_strata])
        labels = np.concatenate([l for _, l in toy_strata])
        out = run_trials(
            None, kind="uniform", data=(values, labels), n_budget=200, n_trials=10
        )
        assert (out["calls"] == 200).all()

    def test_noreuse_kind(self, toy_strata):
        out = run_trials(
            None, kind="abae_noreuse", data=toy_strata, n_budget=300, n_trials=5
        )
        assert len(out) == 5

    def test_with_ci(self, toy_strata):
        out = run_trials(
            None, kind="abae", data=toy_strata, n_budget=300, n_trials=5,
            with_ci=True, n_boot=100,
        )
        assert (out["lo"] <= out["hi"]).all()

    def test_without_ci_nan(self, toy_strata):
        out = run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=3)
        assert out["lo"].isna().all()

    def test_unknown_kind_raises(self, toy_strata):
        with pytest.raises(ValueError):
            run_trials(None, kind="bogus", data=toy_strata, n_budget=10, n_trials=1)

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_no_trials_rejected(self, toy_strata, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(None, kind="abae", data=toy_strata, n_budget=300, n_trials=n_trials)

    @pytest.mark.parametrize("n_boot, alpha", BAD_BOOTSTRAP)
    def test_bad_bootstrap_rejected(self, toy_strata, n_boot, alpha):
        with pytest.raises(ValueError, match="n_boot"):
            run_trials(
                None, kind="abae", data=toy_strata, n_budget=300, n_trials=2,
                with_ci=True, n_boot=n_boot, alpha=alpha,
            )

    def test_bootstrap_settings_unused_without_ci(self, toy_strata):
        out = run_trials(
            None, kind="abae", data=toy_strata, n_budget=300, n_trials=2, n_boot=0, alpha=1.5
        )
        assert out["lo"].isna().all()


class TestLocalGroupTrials:
    @pytest.fixture(scope="class")
    def gb(self):
        ds = D.synthetic_groupby_multi(n=5000)
        return ds, build_groupby_data(ds.pdf, list(ds.proxy_cols), 3)

    def test_rows_per_trial(self, gb):
        ds, data = gb
        out = run_group_trials(
            None, kind="groupby_multi", data=data, n_budget=1000, n_trials=4,
            n_groups=4,
        )
        assert len(out) == 16
        assert set(out["group"]) == set(range(4))

    def test_uniform_kinds(self, gb):
        ds, _ = gb
        pop = (ds.pdf["value"].to_numpy(float), ds.pdf["group"].to_numpy())
        for kind in ("uniform_single", "uniform_multi"):
            out = run_group_trials(
                None, kind=kind, data=pop, n_budget=800, n_trials=3, n_groups=4
            )
            assert len(out) == 12

    def test_estimates_matrix_pivot(self, gb):
        ds, data = gb
        out = run_group_trials(
            None, kind="groupby_multi", data=data, n_budget=1000, n_trials=5,
            n_groups=4,
        )
        m = estimates_matrix(out, 4)
        assert m.shape == (5, 4)

    def test_unknown_kind_raises(self, gb):
        _, data = gb
        with pytest.raises(ValueError):
            run_group_trials(
                None, kind="nope", data=data, n_budget=10, n_trials=1, n_groups=4
            )


@pytest.mark.spark
class TestDistributedTrials:
    @pytest.mark.parametrize("kind", ["abae", "abae_combined"])
    def test_spark_matches_local_exactly(self, spark, toy_strata, kind):
        """Distribution must not change results: same seeds ⇒ same
        estimates, Spark or not."""
        data = toy_strata if kind == "abae" else _combined_payload()
        loc = run_trials(
            None, kind=kind, data=data, n_budget=300, n_trials=16, base_seed=3
        )
        dist = run_trials(
            spark, kind=kind, data=data, n_budget=300, n_trials=16, base_seed=3
        )
        assert loc["estimate"].tolist() == dist["estimate"].tolist()

    @pytest.mark.parametrize("with_ci", [False, True])
    @pytest.mark.parametrize("kind", list(SCALAR_KINDS))
    def test_spark_frame_equals_local(self, spark, toy_strata, kind, with_ci):
        """Same columns, dtypes, row order and values, Spark or not."""
        kw = dict(
            kind=kind, data=_scalar_payload(kind, toy_strata), n_budget=300, n_trials=8,
            base_seed=21, with_ci=with_ci, n_boot=50,
        )
        pd.testing.assert_frame_equal(
            run_trials(spark, **kw), run_trials(None, **kw), check_exact=True
        )

    @pytest.mark.parametrize("kind", list(GROUP_KINDS))
    def test_spark_group_frame_equals_local(self, spark, kind):
        kw = dict(
            kind=kind, data=_group_payload(kind), n_budget=800, n_trials=6, n_groups=4,
            base_seed=13,
        )
        pd.testing.assert_frame_equal(
            run_group_trials(spark, **kw), run_group_trials(None, **kw), check_exact=True
        )

    def test_spark_group_trials_match_local(self, spark):
        ds = D.synthetic_groupby_multi(n=5000)
        data = build_groupby_data(ds.pdf, list(ds.proxy_cols), 3)
        loc = run_group_trials(
            None, kind="groupby_multi", data=data, n_budget=1000, n_trials=8,
            n_groups=4, base_seed=11,
        )
        dist = run_group_trials(
            spark, kind="groupby_multi", data=data, n_budget=1000, n_trials=8,
            n_groups=4, base_seed=11,
        )
        assert loc["estimate"].tolist() == dist["estimate"].tolist()

    @staticmethod
    def _jobs_in_group(spark, group, call):
        """Spark jobs that ``call()`` runs, counted under job group ``group``."""
        sc = spark.sparkContext
        sc.setJobGroup(group, "harness test")
        try:
            call()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return sc.statusTracker().getJobIdsForGroup(group)

    def test_one_spark_job_per_call(self, spark, toy_strata):
        """The seed range is built with its partitions, so a call runs no
        separate shuffle job before the trials."""
        jobs = self._jobs_in_group(spark, "test-harness-one-job", lambda: run_trials(
            spark, kind="abae", data=toy_strata, n_budget=300, n_trials=8, base_seed=5
        ))
        assert len(jobs) == 1

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_no_trials_rejected_before_any_job(self, spark, toy_strata, n_trials):
        def call():
            with pytest.raises(ValueError, match="n_trials"):
                run_trials(spark, kind="abae", data=toy_strata, n_budget=300, n_trials=n_trials)

        assert self._jobs_in_group(spark, f"test-harness-no-trials{n_trials}", call) == []

    @pytest.mark.parametrize("n_boot, alpha", BAD_BOOTSTRAP)
    def test_bad_bootstrap_rejected_before_any_job(self, spark, toy_strata, n_boot, alpha):
        def call():
            with pytest.raises(ValueError, match="n_boot"):
                run_trials(
                    spark, kind="abae", data=toy_strata, n_budget=300, n_trials=4,
                    with_ci=True, n_boot=n_boot, alpha=alpha,
                )

        group = f"test-harness-bad-bootstrap-{n_boot}-{alpha}"
        assert self._jobs_in_group(spark, group, call) == []

    def test_trials_share_the_sql_udf_workers(self, spark):
        """A harness call runs in the Python workers that SQL Python
        jobs (the oracle UDF) use, not in a second pool of its own."""
        n = 4
        n_part = min(n, max(2, spark.sparkContext.defaultParallelism))

        def pids(batches):
            for batch in batches:
                yield pd.DataFrame({"pid": [os.getpid()] * len(batch)})

        harness_pids, sql_pids = set(), set()
        for _ in range(2):
            sql = spark.range(0, n, numPartitions=n_part).mapInPandas(pids, "pid long")
            sql_pids |= {r.pid for r in sql.collect()}
            out = harness._distribute(
                spark, lambda payload, seed: [(os.getpid(),)], None, n, 0, "trial long, pid long"
            )
            harness_pids |= set(out["pid"])
        assert harness_pids & sql_pids

    def test_workers_hold_no_zip_importers(self, spark):
        """A trial runs with its worker's ``zipimporter`` entries dropped
        (``spark_worker.release_zip_importers``), on a reused worker too,
        so pyspark's per-task ``invalidate_caches()`` re-reads no archive."""

        def zip_importers(payload, seed):
            import sys
            import zipimport

            cache = sys.path_importer_cache.values()
            return [(sum(isinstance(f, zipimport.zipimporter) for f in cache),)]

        for _ in range(2):
            out = harness._distribute(
                spark, zip_importers, None, 4, 0, "trial long, zip_importers long"
            )
            assert out["zip_importers"].tolist() == [0, 0, 0, 0]

    def test_spark_with_ci(self, spark, toy_strata):
        out = run_trials(
            spark, kind="abae", data=toy_strata, n_budget=300, n_trials=8,
            with_ci=True, n_boot=100,
        )
        assert (out["lo"] <= out["hi"]).all()

    def test_failed_call_unpersists_its_broadcast(self, spark, monkeypatch):
        """A trial that raises fails the call, and its payload broadcast
        is still released. A failed RDD job surfaces as a
        ``Py4JJavaError`` that carries the trial's own error."""
        sc = spark.sparkContext
        made, released = [], []
        broadcast = sc.broadcast

        def recording_broadcast(value):
            bc = broadcast(value)
            unpersist = bc.unpersist

            def recording_unpersist(*args, **kwargs):
                released.append(bc)
                return unpersist(*args, **kwargs)

            bc.unpersist = recording_unpersist
            made.append(bc)
            return bc

        def fail(payload, seed):
            raise ValueError(f"trial {seed} failed")

        monkeypatch.setattr(sc, "broadcast", recording_broadcast)
        with pytest.raises(Py4JJavaError, match=r"ValueError: trial \d+ failed"):
            harness._distribute(spark, fail, np.arange(10), 4, 0, "trial long, x double")
        assert len(made) == 1
        assert released == made
