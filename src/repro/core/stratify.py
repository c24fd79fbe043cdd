"""Proxy-score quantile stratification (Algorithm 1, ``ABAEInit``).

ABAE sorts the dataset by proxy score and splits it into K strata by
quantile. Under the paper's monotonicity assumption this groups records
with similar predicate-positive probability, which is what makes the
√p̂_k·σ̂_k allocation effective.

The Spark path, ``add_stratum``, is an exact ``ntile(K)`` over (proxy,
id). Exact quantiles require a global ordering (single-partition
window); fine at the paper's scales (≤1.2M narrow rows) and required
for the DuckDB-parity tests.

The numpy path (``stratify_indices``) implements identical ntile
semantics so the Monte-Carlo kernel and the Spark query path agree.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def stratify_indices(scores: np.ndarray, k: int, ids: np.ndarray | None = None) -> np.ndarray:
    """Assign each record a stratum in [0, K) by proxy-score quantile.

    Matches SQL ``ntile(k) OVER (ORDER BY score, id)`` (1-based there,
    0-based here): after sorting, the first ``n % k`` strata get
    ``n // k + 1`` records and the rest get ``n // k``.

    Args:
        scores: proxy scores, shape (n,).
        k: number of strata.
        ids: tiebreak column; defaults to position, which matches a
            DataFrame whose ``id`` column is the row index.

    Returns:
        int64 array of stratum assignments aligned with ``scores``.
    """
    scores = np.asarray(scores)
    n = scores.size
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ids is None:
        ids = np.arange(n)
    order = np.lexsort((np.asarray(ids), scores))  # sort by (score, id)
    q, r = divmod(n, k)
    sizes = np.full(k, q, dtype=np.int64)
    sizes[:r] += 1
    tile_of_rank = np.repeat(np.arange(k, dtype=np.int64), sizes)
    out = np.empty(n, dtype=np.int64)
    out[order] = tile_of_rank
    return out


def strata_arrays(
    scores: np.ndarray,
    values: np.ndarray,
    labels: np.ndarray,
    k: int,
    ids: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split (statistic, label) pairs into K per-stratum arrays.

    This is the input format of the Monte-Carlo sampling kernels: a
    list of ``(values_k, labels_k)`` tuples ordered by stratum index.
    """
    s = stratify_indices(scores, k, ids)
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    return [(values[s == i], labels[s == i]) for i in range(k)]


def add_stratum(
    df: DataFrame,
    k: int,
    *,
    proxy_col: str = "proxy",
    id_col: str = "id",
    out_col: str = "stratum",
) -> DataFrame:
    """Exact quantile stratification: ``ntile(k)`` ordered by
    (proxy, id), emitted 0-based to match ``stratify_indices``."""
    w = Window.orderBy(F.col(proxy_col), F.col(id_col))
    return df.withColumn(out_col, F.ntile(k).over(w) - 1)
