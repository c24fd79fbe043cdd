"""Benchmark fixtures.

Each benchmark reproduces one evaluation table at bench scale
(datasets at SF≈0.1 of the paper's sizes, budgets scaled to match the
paper's sampling fractions, ~100 Monte-Carlo trials vs the paper's
1000), prints the rows the paper's figure plots, and writes them to
``results/<table>.csv`` for EXPERIMENTS.md.
"""
from __future__ import annotations

import pathlib

import pandas as pd
import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def save_table():
    """Persist + print a reproduced table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(df: pd.DataFrame, name: str) -> pd.DataFrame:
        df.to_csv(RESULTS_DIR / f"{name}.csv", index=False)
        with pd.option_context("display.width", 220, "display.max_columns", 50):
            rendered = df.to_string(index=False, float_format=lambda v: f"{v:.4f}")
        _RENDERED_TABLES.append((name, rendered))
        return df

    return _save


_RENDERED_TABLES: list[tuple[str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Emit every reproduced table into the terminal report — pytest's
    fd-level capture would otherwise swallow prints from inside the
    benchmarks."""
    if not _RENDERED_TABLES:
        return
    terminalreporter.section("reproduced evaluation tables")
    for name, rendered in _RENDERED_TABLES:
        terminalreporter.write_line(f"\n=== {name} ===\n{rendered}")
