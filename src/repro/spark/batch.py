"""Bounded-stream CER evaluation on Spark via ``applyInPandas``.

``run_batch`` evaluates a compiled CEQL query over an event DataFrame:

* the stream is a DataFrame with a global ``pos`` column (arrival order) and
  one column per event attribute (``type`` at minimum);
* PARTITION BY attributes become the ``groupBy`` key — the paper's
  hash-partitioned per-partition engine instances (Section 5.4) map exactly
  onto Spark's shuffle: each group runs one engine instance inside a task;
  rows with NULL in a partition attribute are excluded (Section 3);
* without PARTITION BY a constant key funnels the whole stream through one
  engine (the semantics is inherently sequential per substream).

The result is a DataFrame ``(partition, start, end, data)`` with positions
in ``data`` comma-joined, directly comparable against the DuckDB n-way-join
oracle of :mod:`repro.spark.sql_oracle`.
"""
from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..cea.ceql import CompiledQuery
from ..engines import make_engine

MATCH_SCHEMA = "partition string, start long, end long, data string"


def _clean(rec: Dict[str, Any]) -> Dict[str, Any]:
    """pandas NaN/NaT → None so predicate NULL semantics hold."""
    out = {}
    for k, v in rec.items():
        if v is None or (isinstance(v, float) and v != v):
            out[k] = None
        else:
            out[k] = v
    return out


def new_engine(query: CompiledQuery, engine: str, limit: Optional[int]) -> Any:
    """One engine for one partition of ``query``."""
    return make_engine(
        engine,
        query.cea,
        window=query.window,
        consume=query.consume,
        limit=limit,
        strategy=query.strategy,
    )


def feed(
    eng: Any, query: CompiledQuery, pdfs: Iterable[pd.DataFrame], pkey: str
) -> pd.DataFrame:
    """Feed each frame's rows to ``eng`` in ``pos`` order; return the
    matches as :data:`MATCH_SCHEMA` rows labelled with partition ``pkey``."""
    rows: List[tuple] = []
    for pdf in pdfs:
        for rec in pdf.sort_values("pos").to_dict("records"):
            rec = _clean(rec)
            pos = int(rec.pop("pos"))
            ts = query.ts_of(rec, pos)
            for (s, e, data) in eng.process(rec, ts=ts, pos=pos):
                rows.append((pkey, s, e, ",".join(map(str, data))))
    return pd.DataFrame(rows, columns=["partition", "start", "end", "data"])


def run_group(
    pdf: pd.DataFrame,
    query: CompiledQuery,
    engine: str,
    limit: Optional[int],
    partition_cols: Iterable[str],
) -> pd.DataFrame:
    """Run one engine over one partition's events — the per-group body of
    ``applyInPandas``, also reused by tests for driver-side runs."""
    pkey = ",".join(str(pdf.iloc[0][c]) for c in partition_cols)
    return feed(new_engine(query, engine, limit), query, [pdf], pkey)


def run_batch(
    spark: SparkSession,
    events: pd.DataFrame | DataFrame,
    query: CompiledQuery,
    *,
    engine: str = "core",
    limit: Optional[int] = None,
) -> DataFrame:
    """Evaluate ``query`` over ``events`` and return the match DataFrame."""
    sdf = (
        spark.createDataFrame(events) if isinstance(events, pd.DataFrame) else events
    )
    pcols = list(query.partition_by)
    if pcols:
        sdf = sdf.dropna(subset=pcols)
        grouped = sdf.groupBy(*pcols)
    else:
        grouped = sdf.withColumn("_pk", F.lit(0)).groupBy("_pk")

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        if not pcols:
            pdf = pdf.drop(columns=["_pk"])
        return run_group(pdf, query, engine, limit, pcols)

    return grouped.applyInPandas(fn, MATCH_SCHEMA)
