"""A retried oracle task keeps ``ORACLE LIMIT N`` exact and the answer
unchanged.

A process holds one SparkContext, so the query runs in a child process
(this file run as a script) on a ``local[2,2]`` master: each task gets
two tries. The child answers the same ABAE query twice, first through an
oracle whose UDF fails every task's first attempt after metering its
rows, then through a plain oracle, and prints both results as JSON.
"""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pandas as pd  # module-level: ``pandas_udf`` resolves its hints here
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
N_BUDGET = 2_000
SEED = 3


def _query_twice() -> dict:
    """Both runs' estimate, calls, failed tasks and samples."""
    from pyspark import TaskContext
    from pyspark.sql import SparkSession
    from pyspark.sql import functions as F

    from repro.core.abae import abae_query
    from repro.simulate import datasets as D
    from repro.simulate.oracles import SimulatedOracle

    class FirstAttemptFails(SimulatedOracle):
        """Meters its rows, then fails on a task's first attempt."""

        def spark_udf(self, spark):
            if self._udf is None:
                acc = self._acc = spark.sparkContext.accumulator(0)

                @F.pandas_udf("long")
                def _oracle(col: pd.Series) -> pd.Series:
                    acc.add(len(col))
                    if TaskContext.get().attemptNumber() == 0:
                        raise RuntimeError("injected first-attempt failure")
                    return col.astype("int64")

                self._udf = _oracle
            return self._udf

    spark = SparkSession.builder.appName("task-retry").getOrCreate()
    tracker = spark.sparkContext.statusTracker()

    def failed_tasks() -> int:
        stages = (
            tracker.getStageInfo(s)
            for j in tracker.getJobIdsForGroup()
            for s in tracker.getJobInfo(j).stageIds
        )
        return sum(s.numFailedTasks for s in stages if s is not None)

    df = D.load("night_street", scale=0.05).to_spark(spark)
    out = {}
    for name, oracle in (("retried", FirstAttemptFails()), ("plain", SimulatedOracle())):
        before = failed_tasks()
        res = abae_query(df, n_budget=N_BUDGET, oracle=oracle, seed=SEED)
        out[name] = {
            "estimate": res.estimate,
            "calls": oracle.calls,
            "failed_tasks": failed_tasks() - before,
            "samples": [[v.tolist(), l.tolist()] for v, l in res.samples],
        }
    spark.stop()
    return out


@pytest.mark.spark
@pytest.mark.slow
def test_retried_oracle_task_gives_the_same_query():
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
    labeled = sum(len(v) for v, _ in retried["samples"])
    assert retried["calls"] == labeled == plain["calls"]


if __name__ == "__main__":
    print(json.dumps(_query_twice()))
