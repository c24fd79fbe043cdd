"""End-to-end ABAE over a Spark DataFrame (single predicate).

This is the query-processing path: the full table only ever flows
through *cheap* Catalyst operators (two aggregates, the stratum
expression, a hash filter); the expensive oracle UDF touches **only
sampled rows**, which is the entire point of the paper. Apart from the
passes that stratify the table, a query's work is O(N). The table's
columns are fixed by name: an integral ``id``, the statistic ``value``,
the proxy score (``proxy_col``) and the oracle's hidden label. The
dataflow is:

1. ``stratify_frame`` — exact proxy-quantile strata (Algorithm 1 Init).
   Two parallel aggregates over a narrow projection of the table give
   |D|, the ntile strata sizes |D_k|, and the K−1 (proxy, id) keys where
   one stratum ends and the next begins; ``stratum`` is then an
   expression over those keys, evaluated where the table is read.
2. Each stratum's sampling order is ``(xxhash64(id, seed), id)``, a pure
   function of the row, so it is stable across stages and
   re-evaluations (unlike ``rand()``). A query draws at most
   m = N₁/K + N₂ rows from a stratum, so it keeps only the candidates
   whose hash lies below a threshold sized to hold m + 6√m + 32 rows of
   the smallest stratum (a margin of about 6σ). The candidates are a
   prefix of each stratum's order, so ``row_number`` over them gives the
   same first m ranks as over the whole stratum. The candidates are
   coalesced into one partition before they are ranked, so the rank
   window needs no shuffle and the oracle UDF runs in one task rather
   than in ``spark.sql.shuffle.partitions`` of them, and the small
   candidate frame is persisted.
3. Stage 1 labels ranks 1..N₁/K of each stratum and collects them
   (≤ N₁ rows). The pilot p̂_k, σ̂_k come from those rows through the
   numpy estimator, then the allocation T̂ by Proposition 1.
4. Stage 2 labels ranks (N₁/K, N₁/K + ⌊N₂·T̂_k⌋] — sampling without
   replacement with sample reuse — and the final per-stratum estimates,
   the combined answer and the optional bootstrap CI (Algorithm 2) come
   from the ≤ N collected rows. Both queries return the sampler's
   ``TrialResult``.

Each stage reads any candidate shortfall from the rows it gets back: a
stratum that returns fewer rows than its draws has no candidates past
them, and its missing ranks come from the unfiltered ranking. That is
the same order, so the sample is the same, no row is labeled twice and
no sample comes back short. Before each oracle stage the planned row
count is checked against the oracle's remaining budget on the driver,
since the accumulator that meters the UDF can only be read after a job
has labeled its rows. A query reports the calls it metered itself (the
accumulator's growth over the query) and raises if they differ from the
rows it labeled: an accumulator updated in a transformation counts
again when a stage re-executes.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.bootstrap import bootstrap_ci
from repro.core.estimator import plugin_estimates
from repro.core.sampler import TrialResult, abae_sample, split_budget
from repro.core.stratify import _by_stratum, stratify_frame
from repro.simulate.oracles import SimulatedOracle


def _hash_threshold(m: int, size: int) -> int | None:
    """The ``xxhash64`` cutoff below which a stratum of ``size`` rows keeps
    about m + 6√m + 32 of them: m draws with a margin of ~6σ. None when
    that is the whole stratum (no prefilter)."""
    keep = m + 6.0 * math.sqrt(m) + 32.0
    if keep >= size:
        return None
    return int(keep / size * 2.0**64) - 2**63


def _rank(stratified: DataFrame) -> DataFrame:
    """Attach each row's 1-based rank in its stratum's (hash, id) order,
    in one partition: without the ``coalesce(1)`` the window shuffles
    into ``spark.sql.shuffle.partitions`` tasks, and so does the oracle
    UDF over its output."""
    w = Window.partitionBy("stratum").orderBy("_h", "id")
    return stratified.coalesce(1).withColumn("_rank", F.row_number().over(w))


def _label(oracle: SimulatedOracle, ranked: DataFrame, lo: np.ndarray, hi: np.ndarray) -> DataFrame:
    """Ranks (lo_k, hi_k] of every stratum k, labeled by the oracle.

    Raises BudgetExceededError on the driver, before any row is labeled,
    if those rows do not fit the oracle's remaining budget.
    """
    oracle.check_budget(int(np.maximum(hi - lo, 0).sum()))
    # One SQL string, parsed in one call: the same predicate built from
    # Column objects costs ~10 py4j round trips per stratum.
    bands = " OR ".join(
        f"(stratum = {i} AND _rank > {lo[i]} AND _rank <= {hi[i]})"
        for i in np.flatnonzero(hi > lo)
    )
    return oracle.apply(ranked.filter(bands or "false"))


def _per_stratum(labeled: pd.DataFrame, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each stratum's labeled (values, labels) in rank order."""
    labeled = labeled.sort_values(["stratum", "_rank"])
    return _by_stratum(
        labeled["stratum"].to_numpy(), k,
        labeled["value"].to_numpy(dtype=float), labeled["oracle_label"].to_numpy(),
    )


def _finish(
    res: TrialResult, oracle: SimulatedOracle, calls_before: int, seed: int, n_boot: int,
    alpha: float,
) -> TrialResult:
    """``res`` with its bootstrap CI (Algorithm 2) when ``n_boot`` > 0.

    Raises:
        RuntimeError: if the calls ``oracle`` metered since it stood at
            ``calls_before`` are not ``res.oracle_calls``, the number of
            rows the query labeled (Σ|samples|).
    """
    calls = oracle.calls - calls_before
    if calls != res.oracle_calls:
        raise RuntimeError(f"oracle metered {calls} calls for {res.oracle_calls} labeled rows")
    if n_boot > 0:
        res.ci = bootstrap_ci(
            res.samples, np.random.default_rng(seed + 7), n_boot=n_boot, alpha=alpha
        )
    return res


def abae_query(
    df: DataFrame,
    *,
    n_budget: int,
    oracle: SimulatedOracle,
    k: int = 5,
    stage1_frac: float = 0.5,
    proxy_col: str = "proxy",
    seed: int = 0,
    n_boot: int = 0,
    alpha: float = 0.05,
) -> TrialResult:
    """Answer ``SELECT AVG(value) WHERE O(x) ORACLE LIMIT n_budget``
    with ABAE on a Spark DataFrame. See module docstring for dataflow;
    the two stages are ``core.sampler.abae_sample`` over the ranks, and
    its result, with the CI of ``n_boot`` bootstrap resamples, is the
    query's.

    Raises:
        ValueError: if ``n_budget`` is smaller than ``k``, if ``df``
            is empty, or if its proxy column holds nulls.
        BudgetExceededError: before a stage whose rows exceed the
            oracle's remaining budget is labeled.
        RuntimeError: if the oracle metered other than one call per
            labeled row (see :func:`_finish`).
    """
    calls_before = oracle.calls
    n1_per, n2 = split_budget(n_budget, k, stage1_frac)
    cols = list(dict.fromkeys(["id", proxy_col, "value", oracle.label_col]))
    stratified, sizes = stratify_frame(df.select(*cols), k, proxy_col=proxy_col)
    stratified = stratified.withColumn("_h", F.xxhash64("id", F.lit(seed)))
    threshold = _hash_threshold(n1_per + n2, int(sizes[-1]))
    cands = stratified if threshold is None else stratified.filter(F.col("_h") < threshold)
    cands = _rank(cands).persist()
    out = ["stratum", "_rank", "value", "oracle_label"]

    def draw(lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        labeled = _label(oracle, cands, lo, hi).select(*out).toPandas()
        # A stratum's candidates are a prefix of its order: the rows it
        # returns end where its candidates do, or at hi.
        have = lo + np.bincount(labeled["stratum"].to_numpy(dtype=np.int64), minlength=k)
        if (have < hi).any():  # candidate shortfall: top up from the full ranking
            topup = _label(oracle, _rank(stratified), have, hi).select(*out).toPandas()
            labeled = pd.concat([labeled, topup], ignore_index=True)
        return _per_stratum(labeled, k)

    try:
        res = abae_sample(sizes, n_budget, draw, stage1_frac=stage1_frac)
    finally:
        # Blocking, so the block removal does not run on into the next job.
        cands.unpersist(blocking=True)

    return _finish(res, oracle, calls_before, seed, n_boot, alpha)


def uniform_query(
    df: DataFrame,
    *,
    n_budget: int,
    oracle: SimulatedOracle,
    seed: int = 0,
    n_boot: int = 0,
    alpha: float = 0.05,
) -> TrialResult:
    """Uniform-sampling baseline as a Spark query: take the first
    ``n_budget`` rows of a seeded hash ordering (a uniform without-
    replacement sample), label them with the oracle, average the
    positives.

    The sample is the top ``n_budget`` by (hash, id) of a narrow
    projection, via ``orderBy().limit()``: a parallel top-k, where a
    global rank window would sort every row in one task. On its own,
    that plan compiles to TakeOrderedAndProject, whose projection — and
    with it the oracle UDF — is evaluated on the driver outside any
    task, losing the accumulator updates that meter the oracle budget.
    The ``coalesce(1)`` between the limit and the oracle puts the UDF
    back inside a task — the one that merges the per-partition top-k —
    so every call is metered, in one Spark job of two stages (a
    ``repartition(1)`` there would add a shuffle and a second job). The
    query plans ``n_budget`` calls and raises BudgetExceededError
    before labeling if they exceed the oracle's remaining budget, and
    RuntimeError if the oracle metered other than one call per labeled
    row.
    """
    calls_before = oracle.calls
    oracle.check_budget(n_budget)
    sampled = (
        df.select(*dict.fromkeys(["id", "value", oracle.label_col]))
        .withColumn("_h", F.xxhash64("id", F.lit(seed)))
        .orderBy("_h", "id")
        .limit(n_budget)
        .coalesce(1)
    )
    # The merged top-k comes out in (hash, id) order, but Spark does not
    # promise that order, so it is restored on the driver.
    pdf = (
        oracle.apply(sampled)
        .select("_h", "id", "value", "oracle_label")
        .toPandas()
        .sort_values(["_h", "id"])
    )
    v = pdf["value"].to_numpy(dtype=float)
    l = pdf["oracle_label"].to_numpy()
    res = TrialResult(estimate=plugin_estimates(v, l).mu_hat, oracle_calls=v.size, samples=[(v, l)])
    return _finish(res, oracle, calls_before, seed, n_boot, alpha)
