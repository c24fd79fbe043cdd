"""Per-layer probes of the traced run.

Each probe times calls into one layer's public functions from outside,
after the measured loop, so the end-to-end numbers of the same run are
not disturbed by them. Spark-side numbers for the probes that launch
jobs are filled in later from the event log, under the job groups set
here.
"""
from __future__ import annotations

import pickle
import statistics
import time

import numpy as np

from tracing import tracker_counts
from workloads import ALPHA, B, BUDGETS, C, GROUP_BUDGETS, K, N_GROUPS

#: Local single-process trials timed per budget.
LOCAL_REPS = 6
#: Repeats of the Spark probes (the ``add_stratum`` pass, harness calls).
SPARK_REPS = 3
#: Trials of the spark=None vs Spark harness comparison.
SPEEDUP_TRIALS = 100


def _ms(fn) -> float:
    t = time.perf_counter()
    fn()
    return (time.perf_counter() - t) * 1000.0


def ntile_pass(spark, tr, df) -> list[float]:
    """``add_stratum(df, K)`` forced by a no-op write; job groups
    ``probe-ntile-<i>``."""
    from repro.core.stratify import add_stratum

    walls = []
    for i in range(SPARK_REPS):
        spark.sparkContext.setJobGroup(f"probe-ntile-{i}", "add_stratum noop write")
        with tr.span("probe.stratify.ntile") as sp:
            add_stratum(df, K).write.format("noop").mode("overwrite").save()
        walls.append(sp.seconds)
    return walls


def local_kernels(tr, strata, population, gdata, query_samples, seed) -> dict:
    """Single-process timings of the numpy layers the harness runs:
    ``core.sampler``, ``core.bootstrap``, ``core.groupby`` and the
    ``minimize_on_simplex`` binding that ``core.groupby`` calls."""
    import repro.core.groupby as G
    from repro.core.bootstrap import bootstrap_ci
    from repro.core.sampler import abae_trial, uniform_trial

    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    with tr.span("probe.sampler"):
        abae_ms, uni_ms, ci_ms, draws = [], [], [], []
        for b in BUDGETS:
            for _ in range(LOCAL_REPS):
                res = None

                def run_abae():
                    nonlocal res
                    res = abae_trial(strata, b, rng, stage1_frac=C)

                abae_ms.append(_ms(run_abae))
                uni_ms.append(_ms(lambda: uniform_trial(*population, b, rng)))
                ci_ms.append(_ms(lambda: bootstrap_ci(res.samples, rng, n_boot=B, alpha=ALPHA)))
                draws.append(sum(v.size for v, _ in res.samples))
    out["sampler.abae_trial_ms"] = statistics.median(abae_ms)
    out["sampler.uniform_trial_ms"] = statistics.median(uni_ms)
    out["bootstrap.ci_ms"] = statistics.median(ci_ms)
    out["bootstrap.resampled_draws"] = B * statistics.mean(draws)
    with tr.span("probe.bootstrap.query"):
        out["bootstrap.query_ci_ms"] = statistics.median(
            _ms(lambda s=s: bootstrap_ci(s, rng, n_boot=B, alpha=ALPHA)) for s in query_samples
        )

    solves: list[tuple[float, int]] = []
    original = G.minimize_on_simplex

    def counted_minimize(f, n_dims, **kw):
        evals = 0

        def f_counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        t = time.perf_counter()
        lam = original(f_counted, n_dims, **kw)
        solves.append(((time.perf_counter() - t) * 1000.0, evals))
        return lam

    trial_fn = {"groupby_single": G.groupby_single_trial, "groupby_multi": G.groupby_multi_trial}
    calls = []
    G.minimize_on_simplex = counted_minimize
    try:
        with tr.span("probe.groupby"):
            for kind, fn in trial_fn.items():
                ms = []
                for nb in GROUP_BUDGETS:
                    for _ in range(LOCAL_REPS):
                        res = None

                        def run_group(fn=fn, nb=nb):
                            nonlocal res
                            res = fn(gdata[kind], nb * N_GROUPS, rng, stage1_frac=C)

                        ms.append(_ms(run_group))
                        calls.append(res.oracle_calls)
                out[f"groupby.{kind.split('_')[1]}_trial_ms"] = statistics.median(ms)
    finally:
        G.minimize_on_simplex = original
    out["groupby.oracle_calls_per_trial"] = statistics.mean(calls)
    out["nelder_mead.solve_ms"] = statistics.median(s[0] for s in solves)
    out["nelder_mead.evals_per_solve"] = statistics.mean(s[1] for s in solves)
    return out


def harness(spark, tr, strata, seed) -> tuple[dict, list[str]]:
    """``experiments.harness`` costs: a one-trial-per-task call (job
    groups ``probe-harness-<i>``), the pickled broadcast payload, and the
    ``spark=None`` loop against Spark on the same seeds, whose estimates
    must be equal (returned as failures otherwise)."""
    from repro.experiments.harness import run_trials

    sc = spark.sparkContext
    par = sc.defaultParallelism
    out = {"harness.broadcast_mb": len(pickle.dumps(strata, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6}
    walls = []
    for i in range(SPARK_REPS):
        sc.setJobGroup(f"probe-harness-{i}", "run_trials one trial per task")
        with tr.span("probe.harness.call") as sp:
            run_trials(spark, kind="abae", data=strata, n_budget=BUDGETS[0],
                       n_trials=par, base_seed=seed + i * 1_000, stage1_frac=C)
        walls.append(sp.seconds)
    out["harness.call_overhead_s"] = statistics.median(walls)
    out["harness.spark_tasks_per_call"] = statistics.median(
        tracker_counts(sc, f"probe-harness-{i}")["tasks"] for i in range(SPARK_REPS)
    )

    mid = BUDGETS[len(BUDGETS) // 2]
    sc.setJobGroup("probe-speedup", "run_trials speedup")
    with tr.span("probe.harness.spark") as spark_sp:
        a = run_trials(spark, kind="abae", data=strata, n_budget=mid,
                       n_trials=SPEEDUP_TRIALS, base_seed=seed, stage1_frac=C)
    with tr.span("probe.harness.local") as local_sp:
        b = run_trials(None, kind="abae", data=strata, n_budget=mid,
                       n_trials=SPEEDUP_TRIALS, base_seed=seed, stage1_frac=C)
    failures = []
    if not np.array_equal(a["estimate"].to_numpy(), b["estimate"].to_numpy()):
        failures.append("run_trials: Spark and spark=None estimates differ for the same seeds")
    out["harness.speedup"] = local_sp.seconds / spark_sp.seconds
    out["harness.workers"] = par
    return out, failures
