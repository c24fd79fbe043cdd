"""Proxy-score quantile stratification (Algorithm 1, ``ABAEInit``).

ABAE sorts the dataset by proxy score and splits it into K strata by
quantile. Under the paper's monotonicity assumption this groups records
with similar predicate-positive probability, which is what makes the
√p̂_k·σ̂_k allocation effective.

The Spark path, ``add_stratum``, is an exact ``ntile(K)`` over (proxy,
id), computed without sorting the table. A stratum is the set of rows
between two of the K−1 (proxy, id) keys at which ``ntile`` starts a new
tile, and those keys are order statistics that two parallel passes
find exactly (the bracket-and-count technique over a Greenwald–Khanna
quantile summary, which is Spark's ``percentile_approx``):

1. One aggregate counts the rows, giving |D| and the tile sizes, and
   brackets each key's rank b/K·|D| with the approximate percentiles
   [lo_b, hi_b] at b/K ∓ 2/A (A = ``percentile_approx`` accuracy, whose
   rank error is at most |D|/A).
2. One aggregate counts the rows below each lo_b and collects the
   (proxy, id) rows of the bands [lo_b, hi_b], about 4|D|/A per band.
   On the driver the key is the band row at the key's rank minus the
   count below. A frame too small for the bracket's margin to cover
   the rounding of ntile's tile sizes (4|D| < (K + 4)·A) has one band,
   the whole frame.
3. ``stratum`` is a CASE expression over the keys, evaluated in
   parallel wherever the frame is read.

Exactness is checked, never assumed. When a key's rank falls outside
its band, when a band's ends are equal (heavy ties: a tie block of
~4|D|/A rows or more, which the band would collect whole), or when the
two passes count different rows, ``add_stratum`` warns and falls back
to the ``ntile`` window, which orders every row in a single partition.

The numpy path (``stratify_indices``) implements identical ntile
semantics so the Monte-Carlo kernel and the Spark query path agree.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

#: ``percentile_approx`` accuracy A of the first pass.
_ACCURACY = 10_000
#: Half-width of each key's bracket, in quantiles: twice the summary's
#: rank error, so the bracket holds the key with a margin of |D|/A rows.
_DELTA = 2.0 / _ACCURACY


def ntile_sizes(n: int, k: int) -> np.ndarray:
    """Rows per tile of ``ntile(k)`` over n rows: the first ``n % k``
    tiles hold ``n // k + 1``, the rest ``n // k``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q, r = divmod(n, k)
    sizes = np.full(k, q, dtype=np.int64)
    sizes[:r] += 1
    return sizes


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
    sizes = ntile_sizes(n, k)
    if ids is None:
        ids = np.arange(n)
    order = np.lexsort((np.asarray(ids), scores))  # sort by (score, id)
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
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    return _by_stratum(stratify_indices(scores, k, ids), k, values, labels)


def _by_stratum(s: np.ndarray, k: int, *arrays: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """``arrays`` split by the stratum ``s`` of each row into K tuples,
    ordered by stratum index; each keeps its rows in their given order."""
    return [tuple(a[m] for a in arrays) for m in (s == i for i in range(k))]


def _double(x: float) -> str:
    """``x`` as a Spark SQL double literal: ``0.1D``, or a cast for NaN
    and ±inf. Double-typed, so every comparison with it is one of
    doubles, never of decimals."""
    x = float(x)
    return f"{x!r}D" if math.isfinite(x) else f"CAST('{x}' AS DOUBLE)"


def stratify_frame(
    df: DataFrame,
    k: int,
    *,
    proxy_col: str = "proxy",
    id_col: str = "id",
) -> tuple[DataFrame, np.ndarray]:
    """:func:`add_stratum`'s frame, and the rows of each stratum, |D_k|.

    Runs the two passes of the module docstring as two Spark jobs. The
    ``id`` column must be integral: the keys are inlined as literals into
    one SQL string, parsed in one call, where the same expression built
    from ``Column`` objects costs a py4j round trip per operator.

    Raises:
        ValueError: if ``k`` < 1, or if ``proxy_col`` holds nulls (Spark
            orders them first, DuckDB and :func:`stratify_indices` last).
    """
    p, i = f"`{proxy_col}`", f"`{id_col}`"

    def ntile_window(why: str) -> tuple[DataFrame, np.ndarray]:
        warnings.warn(
            f"add_stratum: {why}; falling back to the single-partition ntile window",
            RuntimeWarning,
            stacklevel=3,
        )
        w = Window.orderBy(F.col(proxy_col), F.col(id_col))
        return df.withColumn("stratum", F.ntile(k).over(w) - 1), sizes

    aggs = ["count(1) AS n", f"count({p}) AS n_proxy"]
    if k > 1:
        pcts = ", ".join(
            _double(min(max(b / k + s * _DELTA, 0.0), 1.0)) for b in range(1, k) for s in (-1, 1)
        )
        # NaN breaks the summary's ordering; as +inf it keeps its rank.
        summarized = f"IF(isnan({p}), {_double(math.inf)}, {p})"
        aggs.append(f"percentile_approx({summarized}, array({pcts}), {_ACCURACY}) AS q")
    first = df.selectExpr(*aggs).first()
    n = first["n"]
    if first["n_proxy"] < n:
        raise ValueError(f"{n - first['n_proxy']} null values in {proxy_col!r}")
    sizes = ntile_sizes(n, k)
    # Tile b starts at rank starts[b − 1]; a start at n has no key.
    starts = np.cumsum(sizes)[:-1]
    live = [b for b in range(1, k) if starts[b - 1] < n]
    if not live:
        return df.withColumn("stratum", F.lit(0)), sizes
    if 4 * n < (k + 4) * _ACCURACY:
        # The bracket holds a key only when its margin beyond the
        # summary's error, |D|/A rows, covers the distance between rank
        # b/K·|D| and the tile start (< K/4 + 1 rows). Below that size
        # the band is the whole frame: −inf ≤ proxy ≤ NaN holds for all.
        bands = [(-math.inf, math.nan)] * len(live)
    else:
        q = first["q"]
        bands = [(q[2 * b - 2], q[2 * b - 1]) for b in live]
        if any(lo == hi for lo, hi in bands):
            return ntile_window("heavy proxy ties: a key's bracket has equal ends")

    ranges = [f"{p} >= {_double(lo)} AND {p} <= {_double(hi)}" for lo, hi in dict.fromkeys(bands)]
    below = [f"count_if({p} < {_double(lo)}) AS below{j}" for j, (lo, _) in enumerate(bands)]
    second = df.selectExpr(
        "count(1) AS n",
        *below,
        f"collect_list(struct({p}, {i})) FILTER (WHERE {' OR '.join(ranges)}) AS band",
    ).first()
    if second["n"] != n:
        return ntile_window(f"the passes counted {n} and {second['n']} rows")
    # The union of the bands in (proxy, id) order; numpy, like Spark,
    # sorts NaN last, and band b is the run of it between lo_b and hi_b.
    bp = np.array([r[0] for r in second["band"]], dtype=float)
    bi = np.array([r[1] for r in second["band"]], dtype=np.int64)
    order = np.lexsort((bi, bp))
    bp, bi = bp[order], bi[order]
    keys = []
    for j, (b, (lo, hi)) in enumerate(zip(live, bands)):
        at = np.searchsorted(bp, lo, "left")
        t = starts[b - 1] - second[f"below{j}"]
        if not 0 <= t < np.searchsorted(bp, hi, "right") - at:
            return ntile_window(f"the rank of key {b} falls outside its bracket")
        keys.append((b, _double(bp[at + t]), int(bi[at + t])))
    cases = " ".join(
        f"WHEN {p} > {kp} OR ({p} = {kp} AND {i} >= {ki}) THEN {b}" for b, kp, ki in keys[::-1]
    )
    return df.withColumn("stratum", F.expr(f"CASE {cases} ELSE 0 END")), sizes


def add_stratum(
    df: DataFrame,
    k: int,
    *,
    proxy_col: str = "proxy",
    id_col: str = "id",
) -> DataFrame:
    """Exact quantile stratification: ``ntile(k)`` ordered by
    (proxy, id), emitted 0-based to match ``stratify_indices``. The
    keys are found eagerly, in two Spark jobs (see the module
    docstring); the frame's stratum column is an expression over them.

    Raises:
        ValueError: if ``k`` < 1, or if ``proxy_col`` holds nulls.
    """
    return stratify_frame(df, k, proxy_col=proxy_col, id_col=id_col)[0]
