"""Self-test of the benchmark's correctness checks (no Spark, a few seconds).

Run from the repository root::

    python3 perfbench/selftest.py

It builds correct outputs with the program's local (``spark=None``)
paths on the small workload's tables, asserts that every check passes
on them, then feeds each check a wrong answer and asserts that it
fails: an estimate shifted by 5 Prop.-2 RMSEs, a spend of N + 1 calls,
a CI that excludes its estimate, stratum counts off by one, and trial
estimates shifted by 5 RMSEs. Exits 1 if any expectation does not hold.
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
N = 2_000


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import pandas as pd
    from repro.core.bootstrap import bootstrap_ci
    from repro.core.groupby import build_groupby_data
    from repro.core.sampler import abae_trial
    from repro.experiments.harness import run_group_trials, run_trials

    import checks
    from workloads import BUDGETS, C, GROUP_BUDGETS, K, N_GROUPS, WORKLOADS, generate

    table, single, multi = generate(WORKLOADS["small-36k"])
    ref = checks.reference(table.pdf, K)
    strata = table.strata(K)

    rng = np.random.default_rng(SEED)
    res = abae_trial(strata, N, rng, stage1_frac=C)
    rows = sum(v.size for v, _ in res.samples)
    query = {"kind": "abae", "seed": SEED, "n_budget": N, "estimate": res.estimate,
             "ci": bootstrap_ci(res.samples, rng, n_boot=200), "calls": rows, "rows": rows}

    def trials(kind, t, n_boot=200):
        abae = kind in ("abae", "ci")
        return pd.concat([
            run_trials(None, kind="abae" if abae else "uniform",
                       data=strata if abae else table.population(), n_budget=b, n_trials=t,
                       base_seed=SEED * 1_000 + i * 100, stage1_frac=C,
                       with_ci=kind == "ci", n_boot=n_boot).assign(n_budget=b, op=i)
            for i, b in enumerate(BUDGETS)
        ], ignore_index=True)

    def group_trials(kind, ds):
        data = build_groupby_data(ds.pdf, list(ds.proxy_cols), K)
        return pd.concat([
            run_group_trials(None, kind=kind, data=data, n_budget=nb * N_GROUPS, n_trials=16,
                             n_groups=N_GROUPS, base_seed=SEED * 1_000 + i * 100,
                             stage1_frac=C).assign(n_budget=nb * N_GROUPS, op=i)
            for i, nb in enumerate(GROUP_BUDGETS)
        ], ignore_index=True)

    frames = {"abae": trials("abae", 40), "uniform": trials("uniform", 100),
              "ci": trials("ci", 20)}
    groups = {"groupby_single": (group_trials("groupby_single", single),
                                 checks.group_means(single.pdf, N_GROUPS)),
              "groupby_multi": (group_trials("groupby_multi", multi),
                                checks.group_means(multi.pdf, N_GROUPS))}

    def run_all(q, size_k, fr, gr):
        out = checks.check_query(q, ref) + checks.check_strata(size_k, ref.pos_k, ref)
        out += checks.check_scalar_trials(fr, ref)
        for kind, (t, means) in gr.items():
            out += checks.check_group_trials(kind, t, means)
        return out

    def mutated(**change):
        q, size_k = dict(query), ref.size_k.copy()
        fr, gr = copy.deepcopy(frames), copy.deepcopy(groups)
        for name, fn in change.items():
            {"query": lambda: fn(q), "strata": lambda: fn(size_k), "trials": lambda: fn(fr),
             "groups": lambda: fn(gr)}[name]()
        return run_all(q, size_k, fr, gr)

    r = ref.prop2_rmse(N)
    away = 1.0 if query["estimate"] >= ref.mu else -1.0

    def shift_query(q):
        q["estimate"] += away * 5 * r
        q["ci"] = (q["ci"][0] + away * 5 * r, q["ci"][1] + away * 5 * r)

    def overspend_query(q):
        q["calls"] = q["rows"] = N + 1

    def overspend_trial(fr):
        fr["abae"].loc[0, "calls"] = fr["abae"].loc[0, "n_budget"] + 1

    def exclude_ci(q):
        q["ci"] = (q["estimate"] + 1.0, q["estimate"] + 2.0)

    def off_by_one(size_k):
        size_k[0] += 1
        size_k[1] -= 1

    def shift_trials(fr):
        t = fr["abae"]
        t["estimate"] += 5 * np.array([ref.prop2_rmse(int(b)) for b in t["n_budget"]])

    def shift_group(gr):
        t, means = gr["groupby_multi"]
        sel = t["group"] == 0
        t.loc[sel, "estimate"] += 5 * t.loc[sel, "estimate"].std()

    cases = [
        ("correct outputs pass", {}, None),
        ("query estimate shifted by 5 Prop.-2 RMSEs", {"query": shift_query}, "analytic RMSEs"),
        ("query spends N + 1 calls", {"query": overspend_query}, "oracle calls > N"),
        ("trial spends N + 1 calls", {"trials": overspend_trial}, "overspent"),
        ("query CI excludes its estimate", {"query": exclude_ci}, "excludes its estimate"),
        ("stratum counts off by one", {"strata": off_by_one}, "strata: sizes"),
        ("ABAE trials shifted by 5 Prop.-2 RMSEs", {"trials": shift_trials}, "abae trials"),
        ("group estimates shifted by 5 RMSEs", {"groups": shift_group}, "group 0 bias"),
    ]
    ok = True
    for title, change, expect in cases:
        got = mutated(**change)
        good = not got if expect is None else any(expect in f for f in got)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {title}: {got if got else 'no failure'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
