"""The table registry and the EXPERIMENTS.md generator built on it."""
import importlib.util
from pathlib import Path

import pytest

from repro.harness.tables import TABLES

REPO = Path(__file__).resolve().parents[1]


def _make_experiments():
    spec = importlib.util.spec_from_file_location(
        "make_experiments", REPO / "jobs" / "make_experiments.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_experiments_md_matches_committed_results():
    md = _make_experiments().build(str(REPO / "benchmarks" / "results"))
    assert md == (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")


def test_table_names_unique():
    names = [t.name for t in TABLES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    "table", [t for t in TABLES if not t.spark], ids=lambda t: t.name
)
def test_every_row_has_a_paper_value(table):
    rows = table.run(n_events=4000, budget_s=0.03)
    assert rows
    for r in rows:
        assert tuple(r[k] for k in table.key) in table.paper, r
