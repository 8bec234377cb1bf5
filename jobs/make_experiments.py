"""Regenerate EXPERIMENTS.md from benchmarks/results/*.json.

Each table's section (the paper's reference numbers next to the measured
ones, and the shape its benchmark asserts) comes from its entry in
``repro.harness.tables``. Run after ``pytest benchmarks/ --benchmark-only``.
"""
from __future__ import annotations

import json
import os

from repro.harness.tables import TABLES

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RESULTS = os.path.join(REPO, "benchmarks", "results")

PREAMBLE = [
    "# EXPERIMENTS — paper vs measured",
    "",
    "Reproduction of the evaluation section of *CORE: a COmplex event "
    "Recognition Engine* (PVLDB 2022). The paper reports its results in "
    "Figures 7–9; each figure is reproduced here as a table of numbers "
    "(figures are out of scope). **Paper numbers are approximate** — "
    "read off log-scale plots, with the exact multiples the text quotes "
    "(6x/33x/500x/3800x) used where available.",
    "",
    "Measured numbers come from `benchmarks/results/*.json` (last "
    "`pytest benchmarks/ --benchmark-only` run on this machine; "
    "regenerate this file with `python jobs/make_experiments.py`). "
    "Methodology follows Section 6 — in-memory pre-generated streams, "
    "consumption policy on, enumeration capped at the first 10 results "
    "per event — with the substitutions documented in DESIGN.md "
    "(time-budgeted runs instead of 30 s; Python reimplementations of "
    "the JVM comparators over the same compiled CEA; `tracemalloc` "
    "instead of JVM memory polling; the baselines additionally carry a "
    "100k-partial-match load-shedding cap so the exponential cells "
    "terminate).",
    "",
    "**How to read**: absolute throughput is ~8–15x below the paper "
    "across the board (pure-Python engines vs Java on a faster CPU). "
    "The reproduction targets the *shape*: which system wins, the "
    "flat-vs-degrading trends, and rough factors. Every shape claim "
    "below is also asserted by the corresponding benchmark.",
    "",
]


def _load(results_dir: str, name: str):
    p = os.path.join(results_dir, f"{name}.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def build(results_dir: str = RESULTS) -> str:
    parts = list(PREAMBLE)
    for table in TABLES:
        parts += table.section(_load(results_dir, table.name))
    return "\n".join(parts)


def main() -> None:
    md = build()
    out = os.path.join(REPO, "EXPERIMENTS.md")
    with open(out, "w", encoding="utf-8") as f:
        f.write(md)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
