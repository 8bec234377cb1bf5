"""One benchmark per evaluation table of ``repro.harness.tables.TABLES``.

Each benchmark runs its table's experiment exactly once (pedantic,
rounds=1): the interesting numbers are the *throughput cells inside* the
table (measured with the Section-6 methodology by the harness itself), not
pytest-benchmark's wall-clock of the whole table. Rows are printed and also
persisted to ``benchmarks/results/<table>.json`` so EXPERIMENTS.md can be
regenerated from the last run; then the table's shape check runs.
"""
import json
import os

import pytest

from repro.harness.metrics import format_table
from repro.harness.tables import TABLES

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_table(benchmark, request, table):
    args = (request.getfixturevalue("spark"),) if table.spark else ()
    benchmark.group = table.name
    rows = benchmark.pedantic(
        lambda: table.run(*args), rounds=1, iterations=1, warmup_rounds=0
    )
    print(f"\n== {table.name} ==")
    print(format_table(rows))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{table.name}.json"), "w") as f:
        json.dump(rows, f, indent=1, default=str)
    table.check(rows)
