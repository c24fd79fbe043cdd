"""Spark-parallel Monte-Carlo trial harness.

The paper runs every condition 1,000 times. A single trial is a cheap
numpy kernel (core.sampler / core.groupby); the fleet of trials is
embarrassingly parallel, so we distribute it with ``mapInPandas`` over
a DataFrame of trial seeds: the per-stratum arrays are broadcast once
per call, each executor core runs its share of seeds, and only (trial,
estimate, ci) rows come back. This is the distributed_dataflow shape of
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

from repro.core.bootstrap import bootstrap_ci
from repro.core.groupby import (
    GroupByData,
    groupby_multi_trial,
    groupby_single_trial,
    groupby_uniform_trial,
)
from repro.core.proxy_select import combined_proxy_trial
from repro.core.sampler import abae_trial, uniform_trial
from repro.spark_worker import release_zip_importers

SCALAR_KINDS = ("abae", "abae_noreuse", "uniform", "abae_combined")
GROUP_KINDS = ("groupby_single", "groupby_multi", "uniform_single", "uniform_multi")


def _scalar_trial(kind: str, data: Any, n_budget: int, rng, stage1_frac: float):
    if kind == "abae":
        return abae_trial(data, n_budget, rng, stage1_frac=stage1_frac, reuse=True)
    if kind == "abae_noreuse":
        return abae_trial(data, n_budget, rng, stage1_frac=stage1_frac, reuse=False)
    if kind == "uniform":
        values, labels = data
        return uniform_trial(values, labels, n_budget, rng)
    if kind == "abae_combined":
        scores, values, labels = data
        return combined_proxy_trial(scores, values, labels, n_budget, rng, pilot_frac=stage1_frac)
    raise ValueError(f"unknown scalar trial kind: {kind}")


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
    ``seed − base_seed``, as a frame sorted by trial.

    ``schema`` is the Spark DDL of the output rows, the leading
    ``trial long`` included. With ``spark`` the seeds are spread over
    the cluster by ``mapInPandas`` and ``data`` is broadcast once;
    without it they run in a local loop. The seeds are one range of
    ``n_part`` partitions, so a call is a single Spark job.

    Raises:
        ValueError: if ``n_trials`` < 1.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    cols = [c.split()[0] for c in schema.split(",")]
    if spark is None:
        rows = [(i, *r) for i in range(n_trials) for r in fn(data, base_seed + i)]
        return pd.DataFrame(rows, columns=cols)

    bc = spark.sparkContext.broadcast(data)

    def worker(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        release_zip_importers()
        payload = bc.value
        for batch in batches:
            rows = [
                (int(seed) - base_seed, *r) for seed in batch["id"] for r in fn(payload, int(seed))
            ]
            yield pd.DataFrame(rows, columns=cols)

    n_part = min(n_trials, max(2, spark.sparkContext.defaultParallelism))
    seeds = spark.range(base_seed, base_seed + n_trials, numPartitions=n_part)
    try:
        out = seeds.mapInPandas(worker, schema=schema).toPandas()
    finally:
        bc.unpersist()
    # Stable, so the rows of one trial keep the order ``fn`` gave them.
    return out.sort_values("trial", kind="stable").reset_index(drop=True)


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
        kind: "abae" | "abae_noreuse" | "uniform" | "abae_combined"
            (ABAE over a logistic merge of several proxies, Fig. 12).
        data: per-stratum arrays for "abae" and "abae_noreuse",
            (values, labels) for uniform, and ({proxy: scores}, values,
            labels) for "abae_combined".
        n_budget: oracle budget per trial.
        n_trials: number of Monte-Carlo repetitions.
        base_seed: trial i uses seed ``base_seed + i``.
        with_ci: also compute a bootstrap CI per trial (Algorithm 2).

    Returns:
        DataFrame with columns trial, estimate, lo, hi, calls.
    """
    if kind not in SCALAR_KINDS:
        raise ValueError(f"kind must be one of {SCALAR_KINDS}, got {kind!r}")

    def one(payload: Any, seed: int) -> list[tuple[float, float, float, int]]:
        rng = np.random.default_rng(seed)
        res = _scalar_trial(kind, payload, n_budget, rng, stage1_frac)
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
        kind: "groupby_single" | "groupby_multi" (ABAE-GroupBy) or
            "uniform_single" | "uniform_multi" (baseline).
        data: :class:`GroupByData` for ABAE kinds, (values, groups)
            arrays for the uniform kinds.
        n_budget: total oracle budget per trial (already multiplied by
            the number of groups — the figures normalize by G).
    """
    if kind not in GROUP_KINDS:
        raise ValueError(f"kind must be one of {GROUP_KINDS}, got {kind!r}")

    def one(payload: Any, seed: int) -> list[tuple[int, float, int]]:
        rng = np.random.default_rng(seed)
        if kind == "groupby_single":
            res = groupby_single_trial(payload, n_budget, rng, stage1_frac=stage1_frac)
        elif kind == "groupby_multi":
            res = groupby_multi_trial(payload, n_budget, rng, stage1_frac=stage1_frac)
        else:
            values, groups = payload
            res = groupby_uniform_trial(
                values, groups, n_budget, rng, n_groups,
                per_group_oracle=(kind == "uniform_multi"),
            )
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
