"""Correctness checks of the benchmark's outputs.

Reference numbers come from DuckDB over the generated frame, computed
apart from the program; the other checks test properties the method
must have (budget, CI, error bounds from Props. 1-2). Each ``check_*``
function returns a list of failure messages: an empty list is a pass.
``perfbench/selftest.py`` feeds each check a wrong answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd

#: A query may miss mu by at most this many of its method's analytic RMSEs.
QUERY_RMSES = 5.0
#: ABAE's RMSE may exceed the Prop.-2 optimum (Eq. 4) by at most this factor.
PROP2_FACTOR = 1.5
#: Lowest acceptable coverage of the 95 % bootstrap CIs.
MIN_COVERAGE = 0.90
#: Bias allowed beyond sampling noise, as a share of the RMSE.
BIAS_SHARE = 0.25
#: Width, in standard errors, of every tolerance derived from a trial count.
Z = 4.0


@dataclass
class Reference:
    """Ground truth of one table, from DuckDB.

    Attributes:
        rows: |D|.
        mu: AVG(value) WHERE label = 1.
        p: positive rate over the whole table.
        sigma: population std of value among positives.
        size_k, pos_k: rows and positives per ``ntile(K)`` stratum.
        p_k, sigma_k: per-stratum positive rate and std among positives.
    """

    rows: int
    mu: float
    p: float
    sigma: float
    size_k: np.ndarray
    pos_k: np.ndarray
    p_k: np.ndarray
    sigma_k: np.ndarray

    def prop2_rmse(self, n: int) -> float:
        """sqrt of Eq. 4: (sum_k sqrt(p_k) sigma_k)^2 / (N p_all^2)."""
        p_all = self.p_k.sum()
        return float(np.sqrt(self.p_k) @ self.sigma_k / (math.sqrt(n) * p_all))

    def uniform_rmse(self, n: int) -> float:
        """sigma / sqrt(N p) * sqrt(1 - N/|D|): uniform sampling without
        replacement."""
        return self.sigma / math.sqrt(n * self.p) * math.sqrt(1.0 - n / self.rows)


def reference(pdf: pd.DataFrame, k: int) -> Reference:
    """Compute a :class:`Reference` with DuckDB's own ``ntile``."""
    import duckdb

    con = duckdb.connect()
    try:
        con.execute("SET threads TO 2")
        con.register("d", pdf[["id", "proxy", "value", "label"]])
        rows, mu, p, sigma = con.execute(
            "SELECT count(*), avg(value) FILTER (WHERE label = 1), avg(label),"
            " stddev_pop(value) FILTER (WHERE label = 1) FROM d"
        ).fetchone()
        strata = con.execute(
            f"""
            SELECT s, count(*), sum(label), avg(label),
                   coalesce(stddev_pop(value) FILTER (WHERE label = 1), 0)
            FROM (SELECT *, ntile({k}) OVER (ORDER BY proxy, id) - 1 AS s FROM d)
            GROUP BY s ORDER BY s
            """
        ).fetchall()
    finally:
        con.close()
    cols = np.array(strata, dtype=float).T
    return Reference(
        rows=int(rows), mu=float(mu), p=float(p), sigma=float(sigma),
        size_k=cols[1].astype(np.int64), pos_k=cols[2].astype(np.int64),
        p_k=cols[3], sigma_k=cols[4],
    )


def group_means(pdf: pd.DataFrame, n_groups: int) -> np.ndarray:
    """Per-group AVG(value), by DuckDB."""
    import duckdb

    con = duckdb.connect()
    try:
        con.execute("SET threads TO 2")
        con.register("d", pdf[["group", "value"]])
        got = dict(
            con.execute(
                'SELECT "group", avg(value) FROM d WHERE "group" >= 0 GROUP BY 1'
            ).fetchall()
        )
    finally:
        con.close()
    return np.array([got[g] for g in range(n_groups)], dtype=float)


def check_strata(size_k, pos_k, ref: Reference) -> list[str]:
    """``add_stratum``'s per-stratum rows and positives equal DuckDB's."""
    size_k, pos_k = np.asarray(size_k), np.asarray(pos_k)
    out = []
    if not np.array_equal(size_k, ref.size_k):
        out.append(f"strata: sizes {size_k.tolist()} != DuckDB {ref.size_k.tolist()}")
    if not np.array_equal(pos_k, ref.pos_k):
        out.append(f"strata: positives {pos_k.tolist()} != DuckDB {ref.pos_k.tolist()}")
    return out


def check_query(q: dict, ref: Reference) -> list[str]:
    """One Spark query's output.

    ``q`` holds ``kind`` ("abae" | "uniform"), ``n_budget``, ``estimate``,
    ``ci`` (or None), ``calls`` (metered oracle calls) and ``rows`` (rows
    the query returned to the driver).
    """
    tag = f"{q['kind']} query seed {q.get('seed')}"
    out = []
    if q["calls"] > q["n_budget"]:
        out.append(f"{tag}: spent {q['calls']} oracle calls > N = {q['n_budget']}")
    if q["calls"] != q["rows"]:
        out.append(f"{tag}: {q['calls']} oracle calls != {q['rows']} rows returned")
    if q["ci"] is not None and not q["ci"][0] <= q["estimate"] <= q["ci"][1]:
        out.append(f"{tag}: CI {q['ci']} excludes its estimate {q['estimate']}")
    rmse = (ref.prop2_rmse if q["kind"] == "abae" else ref.uniform_rmse)(q["n_budget"])
    if not abs(q["estimate"] - ref.mu) < QUERY_RMSES * rmse:
        out.append(
            f"{tag}: estimate {q['estimate']:.5f} is {abs(q['estimate'] - ref.mu) / rmse:.2f}"
            f" analytic RMSEs from mu = {ref.mu:.5f} (limit {QUERY_RMSES})"
        )
    return out


def check_budget(kind: str, trials: pd.DataFrame) -> list[str]:
    """Every trial spends at most its budget N; every CI holds its estimate."""
    out = []
    over = trials[trials["calls"] > trials["n_budget"]]
    if len(over):
        r = over.iloc[0]
        out.append(
            f"{kind} trials: {len(over)} overspent, e.g. {int(r['calls'])} calls"
            f" > N = {int(r['n_budget'])}"
        )
    if "lo" in trials and trials["lo"].notna().any():
        bad = ~((trials["lo"] <= trials["estimate"]) & (trials["estimate"] <= trials["hi"]))
        if bad.any():
            out.append(f"{kind} trials: {int(bad.sum())} CIs exclude their own estimate")
    return out


def _bias(err: np.ndarray, rmse: np.ndarray) -> tuple[float, float]:
    """(|mean error| / RMSE, allowed share) pooled over budgets: errors
    are divided by their budget's measured RMSE first. The allowance is
    BIAS_SHARE plus Z standard errors of the pooled mean."""
    z = err / rmse
    return abs(z.mean()), BIAS_SHARE + Z * z.std(ddof=1) / math.sqrt(z.size)


def check_scalar_trials(
    frames: dict[str, pd.DataFrame], ref: Reference, stats: dict | None = None
) -> list[str]:
    """Statistical checks over the scalar trial conditions.

    ``frames`` maps "abae", "uniform" and "ci" to the concatenated
    ``run_trials`` output of every call of that kind, with an added
    ``n_budget`` column. The measured statistics go into ``stats``.
    """
    stats = {} if stats is None else stats
    out = []
    for kind, t in frames.items():
        out += check_budget(kind, t)
    err, norm, rmse_b = {}, {}, {}
    for kind, t in frames.items():
        e = t["estimate"].to_numpy() - ref.mu
        n = t["n_budget"].to_numpy()
        by_budget = pd.Series(e**2).groupby(n).mean() ** 0.5
        err[kind], rmse_b[kind] = e, by_budget.reindex(n).to_numpy()
        norm[kind] = np.array([ref.prop2_rmse(int(b)) for b in n])
        share, allowed = _bias(e, rmse_b[kind])
        stats[f"{kind}.bias_share"] = share
        if not share <= allowed:
            out.append(
                f"{kind} trials: bias {share:.3f} RMSE > allowed {allowed:.3f}"
            )

    # Uniform RMSE against sigma / sqrt(N p) * sqrt(1 - N/|D|), pooled
    # over budgets; RMSE^2 of T trials has relative SE sqrt(2/T).
    u = frames["uniform"]
    analytic = np.array([ref.uniform_rmse(int(b)) for b in u["n_budget"]])
    ratio = math.sqrt(np.mean((err["uniform"] / analytic) ** 2))
    tol = Z * math.sqrt(2.0 / len(u)) / 2.0
    stats["uniform.rmse_over_analytic"] = ratio
    if not abs(ratio - 1.0) <= tol:
        out.append(
            f"uniform trials: RMSE is {ratio:.3f}x the analytic value"
            f" (allowed 1 +- {tol:.3f} at {len(u)} trials)"
        )

    # ABAE against uniform and against the Prop.-2 optimum, both on
    # errors divided by the Prop.-2 RMSE of each trial's budget.
    r_abae = math.sqrt(np.mean((err["abae"] / norm["abae"]) ** 2))
    r_uni = math.sqrt(np.mean((err["uniform"] / norm["uniform"]) ** 2))
    stats["abae.rmse_over_prop2"], stats["uniform.rmse_over_prop2"] = r_abae, r_uni
    if not r_abae < r_uni:
        out.append(f"abae trials: RMSE {r_abae:.3f} not below uniform {r_uni:.3f} (Prop.-2 units)")
    if not r_abae < PROP2_FACTOR:
        out.append(f"abae trials: RMSE is {r_abae:.3f}x the Prop.-2 optimum (limit {PROP2_FACTOR})")

    # Coverage >= MIN_COVERAGE as a one-sided binomial test: fail when
    # the observed share falls Z standard errors below it.
    ci = frames["ci"]
    cover = float(((ci["lo"] <= ref.mu) & (ref.mu <= ci["hi"])).mean())
    floor = MIN_COVERAGE - Z * math.sqrt(MIN_COVERAGE * (1 - MIN_COVERAGE) / len(ci))
    stats["ci.coverage"] = cover
    if not cover >= floor:
        out.append(
            f"ci trials: coverage {cover:.3f} over {len(ci)} CIs is below"
            f" {MIN_COVERAGE} by more than {Z:g} standard errors (floor {floor:.3f})"
        )
    return out


def check_group_trials(
    kind: str, t: pd.DataFrame, means: np.ndarray, stats: dict | None = None
) -> list[str]:
    """Budget and per-group bias of ``run_group_trials`` output (with
    added ``op`` and ``n_budget`` columns) against DuckDB's per-group
    means."""
    stats = {} if stats is None else stats
    out = check_budget(kind, t.drop_duplicates(["op", "trial"]))
    for g, mu in enumerate(means):
        sub = t[t["group"] == g]
        e = sub["estimate"].to_numpy() - mu
        n = sub["n_budget"].to_numpy()
        rmse = (pd.Series(e**2).groupby(n).mean() ** 0.5).reindex(n).to_numpy()
        share, allowed = _bias(e, rmse)
        stats[f"{kind}.group{g}.bias_share"] = share
        if not share <= allowed:
            out.append(f"{kind} trials: group {g} bias {share:.3f} RMSE > allowed {allowed:.3f}")
    return out
