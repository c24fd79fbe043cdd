"""Benchmark: every evaluation table, saved to ``results/<name>.csv``.

Bench scale: datasets at SF=0.1 of paper sizes and 100 Monte-Carlo
trials per condition (paper: full size, 1000 trials), except where
``TRIALS`` says otherwise. Prints the table rows and saves them for
EXPERIMENTS.md.
"""
import pytest

from repro.experiments.tables import TABLES, run_table

BENCH_SCALE = 0.1
BENCH_TRIALS = 100
TRIALS = {"fig5_ci": 60, "fig7_groupby_single": 150, "fig12_combine": 150}


@pytest.mark.parametrize("name", list(TABLES))
def test_table(name, benchmark, spark, save_table):
    def run():
        return run_table(
            name, spark, scale=BENCH_SCALE, n_trials=TRIALS.get(name, BENCH_TRIALS)
        )

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(table, name)
    assert len(table) > 0
    if name == "table2_datasets":
        assert len(table) == 6
