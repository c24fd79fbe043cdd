"""Shared plumbing for the spark-submit entry point ``run_table.py``.

It builds (or reuses) a SparkSession, runs one evaluation table at
CLI-chosen scale/trials, and prints the rows the paper's figure plots.
Run e.g.::

    spark-submit jobs/run_table.py fig2_rmse --scale 0.1 --trials 200
"""
from __future__ import annotations

import argparse

import pandas as pd
from pyspark.sql import SparkSession


def build_session(app: str) -> SparkSession:
    """SparkSession for a standalone job run (mirrors conftest.py)."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", "64")
        .getOrCreate()
    )


def job_args(description: str, tables) -> argparse.Namespace:
    """The CLI: the table to run (one of ``tables``), --scale (dataset
    scale factor), --trials and --seed."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("table", choices=sorted(tables))
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()


def print_table(df: pd.DataFrame, title: str) -> None:
    """Print the result rows the way the paper's figure reports them."""
    print(f"\n=== {title} ===")
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        print(df.to_string(index=False, float_format=lambda v: f"{v:.4f}"))
