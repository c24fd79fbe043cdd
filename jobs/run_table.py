"""Reproduce one evaluation table and print the rows its figure plots.

The table is named by the stem of its ``results/<stem>.csv`` (DESIGN.md
§4 lists them; EXPERIMENTS.md has paper-vs-measured)::

    python jobs/run_table.py fig2_rmse --scale 0.1 --trials 200
"""
from _common import build_session, job_args, print_table

from repro.experiments.tables import TABLES, run_table


def main() -> None:
    args = job_args(__doc__, TABLES)
    spark = None if args.table == "table2_datasets" else build_session(args.table)
    try:
        table = run_table(
            args.table, spark, scale=args.scale, n_trials=args.trials, seed=args.seed
        )
        print_table(table, " ".join(TABLES[args.table].__doc__.split("\n\n")[0].split()))
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()
