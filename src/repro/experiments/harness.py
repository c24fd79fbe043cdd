"""Spark-parallel Monte-Carlo trial harness.

The paper runs every condition 1,000 times. A single trial is a cheap
numpy kernel (core.sampler / core.groupby); the fleet of trials is
embarrassingly parallel, so we distribute it as one RDD job over the
seed range, in the SQL UDF workers: the per-stratum arrays are
broadcast once per call, each executor core runs its share of seeds,
and only (trial, estimate, ci) rows come back. This is the distributed_dataflow shape of
the reproduction — dataset-scan work (stratification) happens in
Catalyst, trial replication happens across the cluster.

Every trial runner goes through ``_distribute``, which falls back to a
local loop when ``spark`` is None (unit tests that don't need the
cluster, and the reference the Spark runs are compared against).
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.bootstrap import bootstrap_ci, check_bootstrap
from repro.core.groupby import (
    groupby_multi_trial,
    groupby_single_trial,
    groupby_uniform_trial,
)
from repro.core.proxy_select import combined_proxy_trial
from repro.core.sampler import abae_trial, uniform_trial
from repro.spark_worker import release_zip_importers

#: Each scalar trial kind and its call (data, n_budget, rng, stage1_frac).
#: ``data`` is the per-stratum arrays for the ABAE kinds, (values, labels)
#: for "uniform", and ({proxy: scores}, values, labels) for
#: "abae_combined", ABAE over a logistic merge of the proxies (Fig. 12).
SCALAR_KINDS = {
    "abae": lambda d, n, rng, c: abae_trial(d, n, rng, stage1_frac=c, reuse=True),
    "abae_noreuse": lambda d, n, rng, c: abae_trial(d, n, rng, stage1_frac=c, reuse=False),
    "uniform": lambda d, n, rng, c: uniform_trial(*d, n, rng),
    "abae_combined": lambda d, n, rng, c: combined_proxy_trial(*d, n, rng, pilot_frac=c),
}
#: Each group-by trial kind and its call (data, n_budget, rng,
#: stage1_frac, n_groups): ABAE-GroupBy over a :class:`GroupByData`, or
#: the uniform baseline over (values, groups) arrays.
GROUP_KINDS = {
    "groupby_single": lambda d, n, rng, c, g: groupby_single_trial(d, n, rng, stage1_frac=c),
    "groupby_multi": lambda d, n, rng, c, g: groupby_multi_trial(d, n, rng, stage1_frac=c),
    "uniform_single": lambda d, n, rng, c, g: groupby_uniform_trial(*d, n, rng, g),
    "uniform_multi": lambda d, n, rng, c, g: groupby_uniform_trial(
        *d, n, rng, g, per_group_oracle=True
    ),
}

#: The pandas dtype of each DDL type a ``_distribute`` schema uses.
_DTYPES = {"long": "int64", "double": "float64"}


def _distribute(
    spark: SparkSession | None,
    fn: Callable[[Any, int], list[tuple]],
    data: Any,
    n_trials: int,
    base_seed: int,
    schema: str,
) -> pd.DataFrame:
    """Run ``fn(data, seed)`` for seeds ``base_seed .. base_seed +
    n_trials − 1`` and return its rows, each prefixed by the trial index
    ``seed − base_seed``, as a frame in trial order.

    ``schema`` is the DDL of the output rows, the leading ``trial long``
    included; ``long`` columns come back as int64 and ``double`` as
    float64. With ``spark`` the seeds are one RDD job over the seed
    range, in the SQL UDF workers, and ``data`` is broadcast once;
    without it they run in a local loop. The range has ``n_part``
    partitions and ``collect`` keeps their order, so the rows come back
    in seed order.

    Raises:
        ValueError: if ``n_trials`` < 1.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    fields = [f.split() for f in schema.split(",")]
    cols = [name for name, _ in fields]
    dtypes = {name: _DTYPES[kind] for name, kind in fields}
    if spark is None:
        rows = [(i, *r) for i in range(n_trials) for r in fn(data, base_seed + i)]
    else:
        sc = spark.sparkContext
        # Spark keys its Python worker pools by the task environment, and
        # its SQL Python runners (the oracle UDF's) add this variable.
        # Without it here, an RDD job starts a second daemon and a second
        # pool of workers.
        if spark.conf.get("spark.sql.execution.pyspark.udf.simplifiedTraceback.enabled") == "true":
            sc.environment["SPARK_SIMPLIFIED_TRACEBACK"] = "1"
        bc = sc.broadcast(data)

        def worker(seeds: Iterator[int]) -> Iterator[tuple]:
            release_zip_importers()
            payload = bc.value
            for seed in seeds:
                for r in fn(payload, seed):
                    yield (seed - base_seed, *r)

        n_part = min(n_trials, max(2, sc.defaultParallelism))
        try:
            seeds = sc.range(base_seed, base_seed + n_trials, numSlices=n_part)
            rows = seeds.mapPartitions(worker).collect()
        finally:
            bc.unpersist()
    return pd.DataFrame(rows, columns=cols).astype(dtypes)


def run_trials(
    spark: SparkSession | None,
    *,
    kind: str,
    data: Any,
    n_budget: int,
    n_trials: int,
    base_seed: int = 0,
    stage1_frac: float = 0.5,
    with_ci: bool = False,
    n_boot: int = 1000,
    alpha: float = 0.05,
) -> pd.DataFrame:
    """Run ``n_trials`` independent trials of a scalar-estimate method.

    Args:
        spark: session for distributed execution, or None for local.
        kind: a :data:`SCALAR_KINDS` key.
        data: that kind's input.
        n_budget: oracle budget per trial.
        n_trials: number of Monte-Carlo repetitions.
        base_seed: trial i uses seed ``base_seed + i``.
        with_ci: also compute a bootstrap CI per trial (Algorithm 2).

    Returns:
        DataFrame with columns trial, estimate, lo, hi, calls.

    Raises:
        ValueError: for an unknown ``kind``, ``n_trials`` < 1, or, with
            ``with_ci``, bootstrap settings ``bootstrap_ci`` rejects;
            all before any Spark job.
    """
    if kind not in SCALAR_KINDS:
        raise ValueError(f"kind must be one of {tuple(SCALAR_KINDS)}, got {kind!r}")
    if with_ci:
        check_bootstrap(n_boot, alpha)
    trial = SCALAR_KINDS[kind]

    def one(payload: Any, seed: int) -> list[tuple[float, float, float, int]]:
        rng = np.random.default_rng(seed)
        res = trial(payload, n_budget, rng, stage1_frac)
        lo = hi = float("nan")
        if with_ci:
            lo, hi = bootstrap_ci(res.samples, rng, n_boot=n_boot, alpha=alpha)
        return [(res.estimate, lo, hi, res.oracle_calls)]

    return _distribute(
        spark, one, data, n_trials, base_seed,
        "trial long, estimate double, lo double, hi double, calls long",
    )


def run_group_trials(
    spark: SparkSession | None,
    *,
    kind: str,
    data: Any,
    n_budget: int,
    n_trials: int,
    n_groups: int,
    base_seed: int = 0,
    stage1_frac: float = 0.5,
) -> pd.DataFrame:
    """Run group-by trials; returns one row per (trial, group).

    Args:
        kind: a :data:`GROUP_KINDS` key.
        data: that kind's input.
        n_budget: total oracle budget per trial (already multiplied by
            the number of groups — the figures normalize by G).
    """
    if kind not in GROUP_KINDS:
        raise ValueError(f"kind must be one of {tuple(GROUP_KINDS)}, got {kind!r}")
    trial = GROUP_KINDS[kind]

    def one(payload: Any, seed: int) -> list[tuple[int, float, int]]:
        res = trial(payload, n_budget, np.random.default_rng(seed), stage1_frac, n_groups)
        return [(g, float(res.estimates[g]), res.oracle_calls) for g in range(n_groups)]

    return _distribute(
        spark, one, data, n_trials, base_seed,
        "trial long, group long, estimate double, calls long",
    )


def estimates_matrix(df: pd.DataFrame, n_groups: int) -> np.ndarray:
    """Pivot run_group_trials output to a (n_trials, n_groups) matrix."""
    return (
        df.pivot(index="trial", columns="group", values="estimate")
        .sort_index()[list(range(n_groups))]
        .to_numpy()
    )
