"""A retried task keeps ``ORACLE LIMIT N`` exact and the answer unchanged.

A process holds one SparkContext, so the query runs in a child process
(this file run as a script) on a ``local[2,2]`` master: each task gets
two tries. The child answers the same ABAE query twice, first on a frame
whose ``value`` column goes through a Python UDF that fails every task's
first attempt, so the candidate scan is retried, then on the plain frame,
and prints both results as JSON. Both runs count the rows passed to the
oracle.
"""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
N_BUDGET = 2_000
SEED = 3


def _query_twice() -> dict:
    """Both runs' estimate, calls, oracle invocations, failed tasks and
    samples."""
    from pyspark import TaskContext
    from pyspark.sql import SparkSession
    from pyspark.sql import functions as F

    from repro.core.abae import abae_query
    from repro.simulate import datasets as D
    from repro.simulate.oracles import SimulatedOracle

    class CountingOracle(SimulatedOracle):
        """Counts the rows passed to :meth:`call`, its invocations."""

        invoked = 0

        def call(self, values):
            self.invoked += len(values)
            return super().call(values)

    spark = SparkSession.builder.appName("task-retry").getOrCreate()

    @F.udf("double")
    def first_attempt_fails(value):
        if TaskContext.get().attemptNumber() == 0:
            raise RuntimeError("injected first-attempt failure")
        return value

    tracker = spark.sparkContext.statusTracker()

    def failed_tasks() -> int:
        stages = (
            tracker.getStageInfo(s)
            for j in tracker.getJobIdsForGroup()
            for s in tracker.getJobInfo(j).stageIds
        )
        return sum(s.numFailedTasks for s in stages if s is not None)

    df = D.load("night_street", scale=0.05).to_spark(spark)
    flaky = df.withColumn("value", first_attempt_fails("value"))
    out = {}
    for name, frame in (("retried", flaky), ("plain", df)):
        oracle = CountingOracle()
        before = failed_tasks()
        res = abae_query(frame, n_budget=N_BUDGET, oracle=oracle, seed=SEED)
        out[name] = {
            "estimate": res.estimate,
            "calls": oracle.calls,
            "invoked": oracle.invoked,
            "failed_tasks": failed_tasks() - before,
            "samples": [[v.tolist(), l.tolist()] for v, l in res.samples],
        }
    spark.stop()
    return out


@pytest.mark.spark
@pytest.mark.slow
def test_retried_oracle_task_gives_the_same_query():
    """A retried scan task: the same estimate, samples and calls as the
    plain run, and on both, rows passed to the oracle == metered calls
    == Σ|samples|."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    submit = (
        "--master local[2,2] --driver-memory 1g --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell"
    )
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path, "PYSPARK_SUBMIT_ARGS": submit},
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    runs = json.loads(proc.stdout.splitlines()[-1])
    retried, plain = runs["retried"], runs["plain"]
    assert retried["failed_tasks"] > 0 and plain["failed_tasks"] == 0
    assert retried["estimate"] == plain["estimate"]
    assert retried["samples"] == plain["samples"]
    for run in (retried, plain):
        labeled = sum(len(v) for v, _ in run["samples"])
        assert run["invoked"] == run["calls"] == labeled
    assert retried["calls"] == plain["calls"]


if __name__ == "__main__":
    print(json.dumps(_query_twice()))
