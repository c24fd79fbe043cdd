"""End-to-end ABAE over a Spark DataFrame (single predicate): select,
then label.

This is the query-processing path: the full table only ever flows
through *cheap* Catalyst operators (two aggregates, the stratum
expression, a hash filter); the expensive oracle labels **only sampled
rows**, which is the entire point of the paper. Apart from the passes
that stratify the table, a query's work is O(N). The table's columns
are fixed by name: an integral ``id``, the statistic ``value``, the
proxy score (``proxy_col``) and the oracle's hidden label. The dataflow
is:

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
   prefix of each stratum's order. One Spark job collects their
   (stratum, hash, id, value, hidden label), and the driver sorts them
   into each stratum's order, so a stratum's first ranks are the first
   of its candidates.
3. Stage 1 labels ranks 1..N₁/K of each stratum. The pilot p̂_k, σ̂_k
   come from those rows through the numpy estimator, then the
   allocation T̂ by Proposition 1.
4. Stage 2 labels ranks (N₁/K, N₁/K + ⌊N₂·T̂_k⌋] — sampling without
   replacement with sample reuse — and the final per-stratum estimates,
   the combined answer and the optional bootstrap CI (Algorithm 2) come
   from the ≤ N labeled rows. Both queries return the sampler's
   ``TrialResult``.

A stratum whose candidates end before a stage's last rank collects the
rows that follow its last one in the same (hash, id) order, in one more
Spark job, so no sample comes back short and the sample is that of the
unfiltered ranking. The oracle is ``SimulatedOracle.call`` on the
driver, as on the numpy path, one call per stage: it checks the stage's
rows against its remaining budget before labeling any, and no Spark task
labels a row, so a retried task cannot label one twice. A query reports
the calls its oracle metered over the query and raises if they differ
from the rows it labeled. The trade-off is that the oracle does not run
on the executors: the driver holds the candidates, about
K·(m + 6√m + 32) rows, and a real model would take one batched call per
stage.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.bootstrap import bootstrap_ci, check_bootstrap
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


def _in_order(rows: pd.DataFrame, k: int, label_col: str) -> list[tuple[np.ndarray, ...]]:
    """Each stratum's (hash, id, value, hidden label) arrays of ``rows``,
    in the stratum's (hash, id) order."""
    s = rows["stratum"].to_numpy(dtype=np.int64)
    h = rows["_h"].to_numpy(dtype=np.int64)
    ids = rows["id"].to_numpy(dtype=np.int64)
    order = np.lexsort((ids, h, s))
    return _by_stratum(
        s[order], k, h[order], ids[order],
        rows["value"].to_numpy(dtype=float)[order], rows[label_col].to_numpy()[order],
    )


def _finish(
    res: TrialResult, oracle: SimulatedOracle, calls_before: int, seed: int, n_boot: int,
    alpha: float,
) -> TrialResult:
    """``res`` with its bootstrap CI (Algorithm 2) unless ``n_boot`` is 0.

    Raises:
        RuntimeError: if the calls ``oracle`` metered since it stood at
            ``calls_before`` are not ``res.oracle_calls``, the number of
            rows the query labeled (Σ|samples|).
    """
    calls = oracle.calls - calls_before
    if calls != res.oracle_calls:
        raise RuntimeError(f"oracle metered {calls} calls for {res.oracle_calls} labeled rows")
    if n_boot:
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
    its result, with the CI of ``n_boot`` bootstrap resamples (none when
    ``n_boot`` is 0), is the query's.

    Raises:
        ValueError: if ``n_budget`` is smaller than ``k``, if ``df``
            is empty, if its proxy column holds nulls, or, with
            ``n_boot`` other than 0, for bootstrap settings
            ``bootstrap_ci`` rejects (before any Spark job).
        BudgetExceededError: before a stage whose rows exceed the
            oracle's remaining budget is labeled.
        RuntimeError: if the oracle metered other than one call per
            labeled row (see :func:`_finish`).
    """
    if n_boot:
        check_bootstrap(n_boot, alpha)
    calls_before = oracle.calls
    n1_per, n2 = split_budget(n_budget, k, stage1_frac)
    label = oracle.label_col
    cols = list(dict.fromkeys(["id", proxy_col, "value", label]))
    stratified, sizes = stratify_frame(df.select(*cols), k, proxy_col=proxy_col)
    stratified = stratified.withColumn("_h", F.xxhash64("id", F.lit(seed)))
    out = ["stratum", "_h", "id", "value", label]
    threshold = _hash_threshold(n1_per + n2, int(sizes[-1]))
    cands = stratified if threshold is None else stratified.filter(F.col("_h") < threshold)
    held = _in_order(cands.select(*out).toPandas(), k, label)

    def draw(lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        oracle.check_budget(int((hi - lo).sum()))
        for i in np.flatnonzero([h.size < e for (h, *_), e in zip(held, hi)]):
            # Candidate shortfall: the rows after the stratum's last one
            # held, in its (hash, id) order.
            h, ids = held[i][0], held[i][1]
            after = F.col("stratum") == int(i)
            if h.size:
                last_h, last_id = F.lit(int(h[-1])), F.lit(int(ids[-1]))
                later = (F.col("_h") == last_h) & (F.col("id") > last_id)
                after &= (F.col("_h") > last_h) | later
            more = stratified.filter(after).select(*out).orderBy("_h", "id")
            more = _in_order(more.limit(int(hi[i]) - h.size).toPandas(), k, label)[i]
            held[i] = tuple(np.concatenate(pair) for pair in zip(held[i], more))
        ranks = [(v[a:b], l[a:b]) for (_, _, v, l), a, b in zip(held, lo, hi)]
        labels = oracle.call(np.concatenate([l for _, l in ranks])).astype(np.int64)
        return list(zip([v for v, _ in ranks], np.split(labels, np.cumsum(hi - lo)[:-1])))

    res = abae_sample(sizes, n_budget, draw, stage1_frac=stage1_frac)
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
    global rank window would sort every row in one task. It is
    collected in that order and labeled on the driver in one oracle
    call. The query raises BudgetExceededError before labeling if
    ``n_budget`` calls exceed the oracle's remaining budget,
    RuntimeError if the oracle metered other than one call per labeled
    row, and, with ``n_boot`` other than 0, ValueError before any Spark
    job for bootstrap settings ``bootstrap_ci`` rejects.
    """
    if n_boot:
        check_bootstrap(n_boot, alpha)
    calls_before = oracle.calls
    oracle.check_budget(n_budget)
    sampled = (
        df.select(*dict.fromkeys(["id", "value", oracle.label_col]))
        .withColumn("_h", F.xxhash64("id", F.lit(seed)))
        .orderBy("_h", "id")
        .limit(n_budget)
        .toPandas()
    )
    v = sampled["value"].to_numpy(dtype=float)
    l = oracle.call(sampled[oracle.label_col].to_numpy()).astype(np.int64)
    res = TrialResult(estimate=plugin_estimates(v, l).mu_hat, oracle_calls=v.size, samples=[(v, l)])
    return _finish(res, oracle, calls_before, seed, n_boot, alpha)
