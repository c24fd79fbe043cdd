"""Per-table experiment definitions for the evaluation section.

Each ``table_*`` function reproduces the numbers behind one evaluation
figure/table of the paper (see DESIGN.md §4 for the index) and returns
a tidy pandas DataFrame whose rows are what the paper plots.
``jobs/run_table.py`` prints these; EXPERIMENTS.md records
paper-vs-measured.

Every figure is a sweep of conditions: (dataset, budget, method) for
Figs. 2–9 and 12 (:func:`_sweep`), (dataset, K or C) for Figs. 10–11
(:func:`_sensitivity`). Each condition is one :func:`_condition` call,
``n_trials`` seeded trials on the Spark harness, which the table
reduces to a metric. All functions take the SparkSession first (trials
are distributed via ``experiments.harness``) plus knobs for scale /
budgets / trial count, defaulting to bench-friendly values (paper:
scale=1, 1000 trials); K and C are the paper's defaults.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.groupby import build_groupby_data
from repro.experiments import metrics as M
from repro.experiments.harness import (
    GROUP_KINDS,
    estimates_matrix,
    run_group_trials,
    run_trials,
)
from repro.simulate import datasets as D

DEFAULT_BUDGETS = (2000, 4000, 6000, 8000, 10000)
LOW_BUDGETS = (500, 750, 1000)
K = 5  # strata per query (§5 default)
C = 0.5  # Stage-1 share of the budget (§5 default)


def _cond_seed(*parts) -> int:
    """Deterministic per-condition seed offset.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED),
    which would make reruns non-reproducible; crc32 of the repr is
    stable across runs and machines.
    """
    import zlib

    return zlib.crc32(repr(parts).encode()) % 100_000


def _effective_budget(n_records: int, budget: int) -> int:
    """Clamp the budget at 60% of the (scaled) population so without-
    replacement sampling stays meaningful at small scales. At the
    paper's scale=1 the clamp never binds (max paper ratio ≈ 28%)."""
    return min(budget, int(0.6 * n_records))


def _scaled_budgets(budgets, scale: float) -> list[int]:
    """Shrink the paper's budgets with the dataset scale so the
    sampling fraction — which drives the ABAE-vs-uniform shape —
    matches the paper's. Deduplicates after flooring so a tiny scale
    cannot collapse the sweep into repeated conditions."""
    out = []
    for b in budgets:
        v = max(150, int(b * min(scale, 1.0)))
        while v in out:
            v += 50
        out.append(v)
    return out


def _condition(
    spark, parts, kind, data, n_budget, *, n_trials, seed, stage1_frac=C, n_groups=0, **kw
) -> pd.DataFrame:
    """One condition: ``n_trials`` trials of harness ``kind``, trial i
    seeded ``seed + _cond_seed(*parts) + i``. Group-by kinds report
    ``n_groups`` estimates per trial; ``kw`` (``with_ci``, ``n_boot``)
    goes to the scalar kinds."""
    base_seed = seed + _cond_seed(*parts)
    if kind in GROUP_KINDS:
        return run_group_trials(
            spark, kind=kind, data=data, n_budget=n_budget, n_trials=n_trials,
            n_groups=n_groups, base_seed=base_seed, stage1_frac=stage1_frac,
        )
    return run_trials(
        spark, kind=kind, data=data, n_budget=n_budget, n_trials=n_trials,
        base_seed=base_seed, stage1_frac=stage1_frac, **kw,
    )


def _sweep(spark, sets, budgets, methods, *, n_trials, seed, **kw):
    """Run every method at every budget on every dataset.

    ``sets`` yields (name, Dataset) pairs; ``methods`` maps a label to
    (harness kind, builder of the kind's input from the Dataset).
    Condition (name, budget, label) is seeded by those three parts and
    spends the budget, per group on a group-by set (Figs. 7–8 normalize
    by G), clamped by :func:`_effective_budget`.

    Yields:
        (name, dataset, budget, spent budget, {label: trial frame}) per
        dataset and budget.
    """
    for name, ds in sets:
        inputs = {label: build(ds) for label, (_, build) in methods.items()}
        for budget in budgets:
            n = _effective_budget(len(ds.pdf), budget * (ds.n_groups or 1))
            yield name, ds, budget, n, {
                label: _condition(
                    spark, (name, budget, label), kind, inputs[label], n,
                    n_trials=n_trials, seed=seed, n_groups=ds.n_groups, **kw,
                )
                for label, (kind, _) in methods.items()
            }


def _real(datasets, scale):
    """The named Table-2 surrogates, each loaded when the sweep reaches it."""
    return ((name, D.load(name, scale=scale)) for name in datasets)


def _rmse(trials: pd.DataFrame, truth: float) -> float:
    return M.rmse(trials["estimate"], truth)


def _gain(baseline: float, ours: float) -> float:
    return baseline / ours if ours > 0 else float("inf")


def _strata(ds: D.Dataset):
    return ds.strata(K)


_UNIFORM = ("uniform", D.Dataset.population)
_ABAE = ("abae", _strata)
_UNIFORM_VS_ABAE = {"uniform": _UNIFORM, "abae": _ABAE}


def table_fig2(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 200,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 2: sampling budget vs RMSE, ABAE vs uniform, six datasets."""
    rows = []
    for name, ds, budget, _, t in _sweep(
        spark, _real(datasets, scale), _scaled_budgets(budgets, scale), _UNIFORM_VS_ABAE,
        n_trials=n_trials, seed=seed,
    ):
        truth = ds.ground_truth()
        r_uni, r_abae = _rmse(t["uniform"], truth), _rmse(t["abae"], truth)
        rows.append(
            {
                "table": "fig2",
                "dataset": name,
                "budget": budget,
                "rmse_uniform": r_uni,
                "rmse_abae": r_abae,
                "improvement": _gain(r_uni, r_abae),
                "truth": truth,
            }
        )
    return pd.DataFrame(rows)


def table_fig3(spark: SparkSession, **kw) -> pd.DataFrame:
    """Fig. 3: the same comparison at low budgets (500–1000)."""
    kw.setdefault("budgets", LOW_BUDGETS)
    df = table_fig2(spark, **kw)
    return df.assign(table="fig3")


def table_fig4(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 200,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 4: budget vs normalized Q-error (plus relative error —
    the text reports 14–70% and 13–76% gains)."""
    rows = []
    for name, ds, budget, _, t in _sweep(
        spark, _real(datasets, scale), _scaled_budgets(budgets, scale), _UNIFORM_VS_ABAE,
        n_trials=n_trials, seed=seed,
    ):
        truth = ds.ground_truth()
        e_uni, e_abae = t["uniform"]["estimate"], t["abae"]["estimate"]
        rows.append(
            {
                "table": "fig4",
                "dataset": name,
                "budget": budget,
                "qerror_uniform": M.normalized_qerror(e_uni, truth),
                "qerror_abae": M.normalized_qerror(e_abae, truth),
                "relerr_uniform": M.relative_error(e_uni, truth),
                "relerr_abae": M.relative_error(e_abae, truth),
            }
        )
    return pd.DataFrame(rows)


def table_fig5(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 100,
    n_boot: int = 500,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 5: budget vs bootstrap CI width (α=0.05) + coverage."""
    rows = []
    for name, ds, budget, _, t in _sweep(
        spark, _real(datasets, scale), _scaled_budgets(budgets, scale), _UNIFORM_VS_ABAE,
        n_trials=n_trials, seed=seed, with_ci=True, n_boot=n_boot,
    ):
        truth = ds.ground_truth()
        t_uni, t_abae = t["uniform"], t["abae"]
        rows.append(
            {
                "table": "fig5",
                "dataset": name,
                "budget": budget,
                "ci_width_uniform": M.ci_width(t_uni["lo"], t_uni["hi"]),
                "ci_width_abae": M.ci_width(t_abae["lo"], t_abae["hi"]),
                "coverage_uniform": M.ci_coverage(t_uni["lo"], t_uni["hi"], truth),
                "coverage_abae": M.ci_coverage(t_abae["lo"], t_abae["hi"], truth),
            }
        )
    return pd.DataFrame(rows)


def table_fig6(
    spark: SparkSession,
    *,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 200,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 6: multi-predicate queries (night-street cars ∧ red-light,
    joint p≈0.17, and the synthetic 5-strata/2-predicate set).
    ABAE-MultiPred stratifies by the ∧-combined score (product)."""
    sets = {
        "night_street_multipred": D.night_street_multipred(scale=scale),
        "synthetic_multipred": D.synthetic_multipred(n=max(5000, int(50_000 * scale * 10))),
    }
    methods = {
        "uniform": _UNIFORM,
        "abae_single_proxy": ("abae", lambda ds: ds.strata(K, proxy_col="proxy_0")),
        "abae_multipred": _ABAE,  # the combined score
    }
    rows = []
    for name, ds, budget, _, t in _sweep(
        spark, sets.items(), _scaled_budgets(budgets, scale), methods,
        n_trials=n_trials, seed=seed,
    ):
        truth = ds.ground_truth()
        e = {label: _rmse(trials, truth) for label, trials in t.items()}
        rows.append(
            {
                "table": "fig6", "dataset": name, "budget": budget,
                "rmse_uniform": e["uniform"],
                "rmse_abae_single_proxy": e["abae_single_proxy"],
                "rmse_abae_multipred": e["abae_multipred"],
                "improvement": _gain(e["uniform"], e["abae_multipred"]),
            }
        )
    return pd.DataFrame(rows)


def _groupby_table(spark, table, sets, kind_abae, kind_uniform, norm_budgets, n_trials, seed):
    """Figs. 7–8: max RMSE over groups of ABAE-GroupBy ("a") and uniform
    sampling ("u") per normalized budget."""
    methods = {
        "a": (kind_abae, lambda ds: build_groupby_data(ds.pdf, list(ds.proxy_cols), K)),
        "u": (
            kind_uniform,
            lambda ds: (ds.pdf["value"].to_numpy(float), ds.pdf["group"].to_numpy()),
        ),
    }
    rows = []
    for name, ds, nb, _, t in _sweep(
        spark, sets.items(), norm_budgets, methods, n_trials=n_trials, seed=seed
    ):
        truths = ds.group_truths()
        m_abae = M.max_group_rmse(estimates_matrix(t["a"], ds.n_groups), truths)
        m_uni = M.max_group_rmse(estimates_matrix(t["u"], ds.n_groups), truths)
        rows.append(
            {
                "table": table, "dataset": name, "normalized_budget": nb,
                "max_rmse_uniform": m_uni, "max_rmse_abae": m_abae,
                "improvement": _gain(m_uni, m_abae),
            }
        )
    return pd.DataFrame(rows)


def table_fig7(
    spark: SparkSession,
    *,
    norm_budgets=(500, 1000, 1500, 2000),
    scale: float = 0.1,
    n_trials: int = 100,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 7: group-by with a single group-key oracle; max RMSE over
    groups vs per-group-normalized budget."""
    sets = {
        "celeba_groupby": D.celeba_groupby(scale=scale),
        "synthetic_groupby_single": D.synthetic_groupby_single(
            n=max(20_000, int(100_000 * scale * 10))
        ),
    }
    return _groupby_table(
        spark, "fig7", sets, "groupby_single", "uniform_single", norm_budgets, n_trials, seed
    )


def table_fig8(
    spark: SparkSession,
    *,
    norm_budgets=(500, 1000, 1500, 2000),
    scale: float = 0.1,
    n_trials: int = 100,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 8: group-by with one oracle per group."""
    sets = {
        "celeba_groupby": D.celeba_groupby(scale=scale),
        "synthetic_groupby_multi": D.synthetic_groupby_multi(
            n=max(20_000, int(100_000 * scale * 10))
        ),
    }
    return _groupby_table(
        spark, "fig8", sets, "groupby_multi", "uniform_multi", norm_budgets, n_trials, seed
    )


def table_fig9(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    budget: int = 10_000,
    scale: float = 0.1,
    n_trials: int = 200,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 9: lesion — full ABAE vs ABAE w/o sample reuse vs uniform,
    N=10,000."""
    methods = {"abae": _ABAE, "abae_noreuse": ("abae_noreuse", _strata), "uniform": _UNIFORM}
    rows = []
    for name, ds, budget, _, t in _sweep(
        spark, _real(datasets, scale), _scaled_budgets((budget,), scale), methods,
        n_trials=n_trials, seed=seed,
    ):
        truth = ds.ground_truth()
        r = {m: _rmse(trials, truth) for m, trials in t.items()}
        rows.append(
            {
                "table": "fig9", "dataset": name, "budget": budget,
                "rmse_abae": r["abae"], "rmse_no_reuse": r["abae_noreuse"],
                "rmse_uniform": r["uniform"],
            }
        )
    return pd.DataFrame(rows)


def _sensitivity(spark, table, knob, values, *, datasets, budget, scale, n_trials, seed):
    """Figs. 10–11: ABAE's RMSE at one budget as the number of strata
    (``knob`` "k") or the Stage-1 fraction ("c") takes each of
    ``values``, against uniform sampling. The baseline is condition
    (name, "u"); ABAE at value v is condition (name, v)."""
    (budget,) = _scaled_budgets((budget,), scale)
    rows = []
    for name, ds in _real(datasets, scale):
        truth = ds.ground_truth()
        n = _effective_budget(len(ds.pdf), budget)
        r_uni = _rmse(_condition(
            spark, (name, "u"), "uniform", ds.population(), n, n_trials=n_trials, seed=seed
        ), truth)
        strata = ds.strata(K)
        for v in values:
            t = _condition(
                spark, (name, v), "abae", ds.strata(v) if knob == "k" else strata, n,
                n_trials=n_trials, seed=seed, stage1_frac=v if knob == "c" else C,
            )
            rows.append(
                {
                    "table": table, "dataset": name, knob: v, "budget": n,
                    "rmse_abae": _rmse(t, truth), "rmse_uniform": r_uni,
                }
            )
    return pd.DataFrame(rows)


def table_fig10(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    ks=tuple(range(2, 11)),
    budget: int = 10_000,
    scale: float = 0.1,
    n_trials: int = 100,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 10: sensitivity to the number of strata K (2–10)."""
    return _sensitivity(
        spark, "fig10", "k", ks,
        datasets=datasets, budget=budget, scale=scale, n_trials=n_trials, seed=seed,
    )


def table_fig11(
    spark: SparkSession,
    *,
    datasets=D.REAL_WORLD,
    cs=(0.1, 0.3, 0.5, 0.7, 0.9),
    budget: int = 10_000,
    scale: float = 0.1,
    n_trials: int = 100,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 11: sensitivity to the Stage-1 budget fraction C."""
    return _sensitivity(
        spark, "fig11", "c", cs,
        datasets=datasets, budget=budget, scale=scale, n_trials=n_trials, seed=seed,
    )


def _combined_input(ds: D.Dataset):
    """(scores per proxy, values, labels): the ``abae_combined`` input,
    every proxy but the summary ``proxy`` column."""
    scores = {c: ds.pdf[c].to_numpy(float) for c in ds.proxy_cols if c != "proxy"}
    return (scores, *ds.population())


def table_fig12(
    spark: SparkSession,
    *,
    budgets=DEFAULT_BUDGETS,
    scale: float = 0.1,
    n_trials: int = 100,
    seed: int = 0,
) -> pd.DataFrame:
    """Fig. 12: uniform vs single-proxy ABAE vs ABAE with the logistic
    proxy combination, on the trec05p keyword-proxy surrogate and the
    synthetic noisy-Bernoulli-proxy set."""
    sets = {
        "trec05p_proxies": D.trec05p_proxies(scale=max(scale, 0.05)),
        "synthetic_combine": D.synthetic_combine(n=max(5000, int(50_000 * scale * 10))),
    }
    methods = {
        "u": _UNIFORM,
        "s": ("abae", lambda ds: ds.strata(K, proxy_col=ds.proxy_cols[1])),
        "c": ("abae_combined", _combined_input),
    }
    rows = []
    for name, ds, _, n, t in _sweep(
        spark, sets.items(), _scaled_budgets(budgets, scale), methods,
        n_trials=n_trials, seed=seed,
    ):
        truth = ds.ground_truth()
        rows.append(
            {
                "table": "fig12", "dataset": name, "budget": n,
                "rmse_uniform": _rmse(t["u"], truth),
                "rmse_abae_single": _rmse(t["s"], truth),
                "rmse_abae_combined": _rmse(t["c"], truth),
            }
        )
    return pd.DataFrame(rows)


def table2_datasets(scale: float = 0.1) -> pd.DataFrame:
    """Table 2: dataset inventory — paper sizes vs surrogate sizes,
    predicate positive rates, and oracle/proxy substitutions."""
    rows = []
    for name, entry in D.TABLE2.items():
        ds = D.load(name, scale=scale)
        rows.append(
            {
                "table": "table2",
                "dataset": name,
                "paper_size": entry.paper_size,
                "surrogate_size": len(ds.pdf),
                "positive_rate": float(ds.pdf["label"].mean()),
                "predicate": entry.predicate,
                "paper_target_dnn": entry.paper_oracle,
                "paper_proxy": entry.paper_proxy,
                "ground_truth_mu": ds.ground_truth(),
            }
        )
    return pd.DataFrame(rows)


#: Every evaluation table by the stem of the ``results/<stem>.csv`` it
#: is saved to: the names ``jobs/run_table.py`` and the bench take.
TABLES = {
    "table2_datasets": table2_datasets,
    "fig2_rmse": table_fig2,
    "fig3_low_budgets": table_fig3,
    "fig4_qerror": table_fig4,
    "fig5_ci": table_fig5,
    "fig6_multipred": table_fig6,
    "fig7_groupby_single": table_fig7,
    "fig8_groupby_multi": table_fig8,
    "fig9_lesion": table_fig9,
    "fig10_k": table_fig10,
    "fig11_c": table_fig11,
    "fig12_combine": table_fig12,
}


def run_table(
    name: str, spark: SparkSession | None, *, scale: float, n_trials: int, seed: int = 0
) -> pd.DataFrame:
    """Table ``name`` (a :data:`TABLES` key) at the given scale and
    trials per condition. Table 2 runs no trials and needs no session."""
    if name == "table2_datasets":
        return table2_datasets(scale=scale)
    return TABLES[name](spark, scale=scale, n_trials=n_trials, seed=seed)
