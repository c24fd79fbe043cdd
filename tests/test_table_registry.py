"""One set of evaluation-table names: the tables ``jobs/run_table.py``
accepts, the bench's parameters and the ``results/*.csv`` stems must be
the same, so a new figure cannot miss one of them."""
from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import benchmarks.test_results as bench
from repro.experiments.tables import TABLES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _job_choices() -> set[str]:
    """The table names ``run_table.py --help`` offers."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "run_table.py"), "--help"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return set(re.search(r"\{([^}]*)\}", out).group(1).split(","))


def _bench_params() -> set[str]:
    (mark,) = [m for m in bench.test_table.pytestmark if m.name == "parametrize"]
    return set(mark.args[1])


def test_job_bench_and_results_name_the_same_tables():
    results = {p.stem for p in (ROOT / "results").glob("*.csv")}
    assert _job_choices() == _bench_params() == results == set(TABLES)
    assert set(bench.TRIALS) <= results
