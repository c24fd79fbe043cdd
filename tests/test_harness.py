"""Tests for experiments.harness — the Spark-distributed Monte-Carlo
runner and its local fallback."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.errors import PythonException

from repro.core.groupby import build_groupby_data
from repro.experiments import harness
from repro.experiments.harness import estimates_matrix, run_group_trials, run_trials
from repro.simulate import datasets as D


def _combined_payload():
    """The "abae_combined" input on the synthetic proxy-combination set:
    every proxy's scores but the summary ``proxy``, values, labels."""
    ds = D.synthetic_combine(n=5000)
    scores = {c: ds.pdf[c].to_numpy(float) for c in ds.proxy_cols if c != "proxy"}
    return (scores, *ds.population())


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

    def test_spark_with_ci(self, spark, toy_strata):
        out = run_trials(
            spark, kind="abae", data=toy_strata, n_budget=300, n_trials=8,
            with_ci=True, n_boot=100,
        )
        assert (out["lo"] <= out["hi"]).all()

    def test_failed_call_unpersists_its_broadcast(self, spark, monkeypatch):
        """A trial that raises fails the call, and its payload broadcast
        is still released."""
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
        with pytest.raises(PythonException, match="failed"):
            harness._distribute(spark, fail, np.arange(10), 4, 0, "trial long, x double")
        assert len(made) == 1
        assert released == made
