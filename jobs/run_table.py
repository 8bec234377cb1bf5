"""Run one evaluation table and print its rows.

    spark-submit jobs/run_table.py table5 [--budget S] [--events N] [--seed K]

The tables are the entries of ``repro.harness.tables.TABLES``. Only the
flags given are passed on, so a bare run computes the same cells as the
table's benchmark. The experiments are single-core engine runs, as in the
paper: Spark is only the launcher, except for table6, which also runs its
Spark path on the session.
"""
from __future__ import annotations

import argparse
import inspect

from repro.harness.metrics import format_table
from repro.harness.tables import TABLES


def main() -> None:
    tables = {t.name: t for t in TABLES}
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("table", choices=tables)
    ap.add_argument(
        "--budget", type=float, dest="budget_s",
        help="seconds of measurement per cell, tables 1-5 "
        "(default REPRO_BENCH_BUDGET or 0.4)",
    )
    ap.add_argument(
        "--events", type=int, dest="n_events", help="pre-generated stream length"
    )
    ap.add_argument("--seed", type=int)
    args = vars(ap.parse_args())
    table = tables[args.pop("table")]
    kwargs = {k: v for k, v in args.items() if v is not None}
    try:  # before a Spark session is paid for
        inspect.signature(table.run).bind_partial(**kwargs)
    except TypeError as e:
        ap.error(f"{table.name}: {e}")
    if not table.spark:
        rows = table.run(**kwargs)
    else:
        from pyspark.sql import SparkSession

        spark = (
            SparkSession.builder.appName(f"repro-{table.name}")
            .config("spark.sql.shuffle.partitions", "16")
            .getOrCreate()
        )
        try:
            rows = table.run(spark, **kwargs)
        finally:
            spark.stop()
    print(format_table(rows), flush=True)


if __name__ == "__main__":
    main()
