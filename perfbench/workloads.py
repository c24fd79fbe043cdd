"""The benchmark's two workloads and the inputs each one generates.

Both workloads run the same operations (Spark ABAE and uniform queries,
and Monte-Carlo trial batches through ``experiments.harness``) at the
same query parameters. They differ in table size, which decides whether
full-table passes or fixed per-call costs dominate, and in how many
queries and trials a round holds, which is set so that a round lasts
about ROUND_S on both.
"""
from __future__ import annotations

from dataclasses import dataclass

#: Query parameters shared by every operation (the paper's defaults).
N_QUERY = 10_000  # ORACLE LIMIT of each Spark query
K = 5  # strata
C = 0.5  # Stage-1 share of the budget
B = 1_000  # bootstrap replicates
ALPHA = 0.05  # 95 % confidence intervals

#: Budgets of the scalar trial conditions: the two ends of Fig. 2's
#: 2,000-10,000. Fewer, longer harness calls keep the fixed cost of a
#: call (0.25-0.6 s on 4 cores) under half of each call's time.
BUDGETS = (2_000, 10_000)
#: The two ends of the Fig. 7/8 per-group budgets; each trial spends
#: N_G = budget x groups.
GROUP_BUDGETS = (500, 2_000)
N_GROUPS = 4

#: Nominal length of one round on a 4-core machine. A run of
#: ``--seconds`` makes round(seconds / ROUND_S) whole rounds, at least
#: one, so every run of a workload attempts the same operations.
ROUND_S = 25.0

#: Set-up warms the query path up on the cached table's rows with
#: id < WARMUP_ROWS (all of small-36k): the same scan and plans as the
#: measured queries. Warm-up on a separate small frame left small-36k's
#: query times falling by ~20 % over the first ten measured queries.
WARMUP_ROWS = 40_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` argument.
        dataset: Table-2 surrogate, at the paper's row count, used for
            queries and scalar trials.
        group_rows: rows of each Fig. 7/8 synthetic group-by set.
        queries: ABAE and uniform queries per round (each).
        warmup_queries: ABAE + uniform query pairs run in set-up; one on
            large-973k, where a pair on the filtered table costs ~6 s.
        trials: Monte-Carlo trials per ``run_trials`` /
            ``run_group_trials`` call, by condition; enough that the
            trials, not the call's fixed cost, take most of a call.
    """

    name: str
    dataset: str
    group_rows: int
    queries: int
    warmup_queries: int
    trials: dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        # Paper-size night_street table: passes over the full table (exact
        # ntile, rank windows, per-stratum permutations, the 15.6 MB strata
        # broadcast) dominate. The group-by sets are the 100,000 rows that
        # table_fig7/8(scale=0.1) build; at 1,000,000 rows their set-up
        # and 96 MB broadcasts would not fit a run's time.
        Workload(
            name="large-973k",
            dataset="night_street",
            group_rows=100_000,
            queries=1,
            warmup_queries=1,
            trials={"abae": 160, "uniform": 4_000, "ci": 32,
                    "groupby_single": 128, "groupby_multi": 128},
        ),
        # Paper-size amazon_posters table (N = 10,000 is 28 % of it) and
        # the 20,000-row floor of table_fig7/8: fixed costs per Spark job
        # and per harness call, and O(N) work per trial, dominate.
        Workload(
            name="small-36k",
            dataset="amazon_posters",
            group_rows=20_000,
            queries=5,
            warmup_queries=3,
            trials={"abae": 2_400, "uniform": 20_000, "ci": 48,
                    "groupby_single": 192, "groupby_multi": 320},
        ),
    )
}


def round_ops(workload: Workload) -> list[tuple[str, str | None, int]]:
    """Operations of one round, in order: (operation, trial kind, budget).

    Every run of a workload repeats whole rounds of exactly these. The
    conditions are interleaved by budget and the query pairs spread over
    the round, so a burst of load on the machine, or the JIT warming up
    further, touches every metric a little rather than one a lot.
    """
    trials = []
    for i, b in enumerate(BUDGETS):
        trials += [("trials", kind, b) for kind in ("abae", "uniform", "ci")]
        if i < len(GROUP_BUDGETS):
            trials += [("group_trials", kind, GROUP_BUDGETS[i] * N_GROUPS)
                       for kind in ("groupby_single", "groupby_multi")]
    ops = []
    step = len(trials) / workload.queries
    for j in range(workload.queries):
        ops += [("abae_query", None, N_QUERY), ("uniform_query", None, N_QUERY)]
        ops += trials[round(j * step): round((j + 1) * step)]
    return ops


def op_seed(seed: int, round_no: int, op_no: int) -> int:
    """Query seed or trial ``base_seed`` of one operation: distinct for
    every operation of a run and for run seeds 0-999, so each query draws
    a fresh sample."""
    return (seed % 1_000) * 10_000_000 + round_no * 100_000 + op_no * 1_000


def generate(workload: Workload):
    """Build the workload's tables: ``(table, group_single, group_multi)``.

    They are the surrogates the repository's table functions build, with
    the generators' own fixed seeds, so every run works on the same data
    and the run seed varies only the queries' samples and the trials'
    draws (see :func:`op_seed`).
    """
    from repro.simulate import datasets as D

    table = D.load(workload.dataset, scale=1.0)
    single = D.synthetic_groupby_single(n=workload.group_rows)
    multi = D.synthetic_groupby_multi(n=workload.group_rows)
    return table, single, multi
