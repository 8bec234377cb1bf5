"""CER as a Structured Streaming stateful operator.

Implements automaton-based partial-match maintenance as a
``applyInPandasWithState`` operator (PySpark's flatMapGroupsWithState):

* the stream is grouped by the PARTITION BY key (or a constant key);
* per-key state holds the pickled engine — the tECS is pruned to the WITHIN
  window (Section 5.4's weak-reference GC analogue), so state size is
  O(window · |Q|) regardless of stream length;
* each micro-batch feeds its rows to the engine in arrival order and emits
  the recognized complex events in append mode.

Events must arrive in ``pos`` order per key across micro-batches (true for
a replayed ordered source; the tests drive an ordered file source). The
engine pickle round-trip per micro-batch is the Spark-state analogue of
what FlinkCEP does per event.
"""
from __future__ import annotations

import pickle
import sys
from typing import Any, Iterator, Optional, Tuple

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from ..cea.ceql import CompiledQuery
from .batch import MATCH_SCHEMA, feed, new_engine

STATE_SCHEMA = "blob binary"


def make_stateful_func(query: CompiledQuery, engine: str = "core", limit=None):
    """Build the (key, pdf_iter, state) -> Iterator[pdf] stateful function."""

    def fn(
        key: Tuple[Any, ...],
        pdfs: Iterator[pd.DataFrame],
        state: GroupState,
    ) -> Iterator[pd.DataFrame]:
        # Deep tECS DAGs are recursive structures; give pickle headroom.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
        if state.exists:
            (blob,) = state.get
            eng = pickle.loads(bytes(blob))
        else:
            eng = new_engine(query, engine, limit)
        pkey = ",".join(str(k) for k in key) if query.partition_by else ""
        out = feed(eng, query, pdfs, pkey)
        state.update((pickle.dumps(eng),))
        yield out

    return fn


def streaming_matches(
    events_stream: DataFrame,
    query: CompiledQuery,
    *,
    engine: str = "core",
    limit: Optional[int] = None,
) -> DataFrame:
    """Wire the stateful operator onto a streaming events DataFrame.

    ``events_stream`` must be a streaming DataFrame with a ``pos`` column and
    the query's attributes. Returns the streaming match DataFrame (append
    mode) with :data:`MATCH_SCHEMA`.
    """
    from pyspark.sql import functions as F

    pcols = list(query.partition_by)
    if pcols:
        sdf = events_stream.dropna(subset=pcols)
        grouped = sdf.groupBy(*pcols)
    else:
        grouped = events_stream.withColumn("_pk", F.lit(0)).groupBy("_pk")
    return grouped.applyInPandasWithState(
        make_stateful_func(query, engine, limit),
        MATCH_SCHEMA,
        STATE_SCHEMA,
        "append",
        GroupStateTimeout.NoTimeout,
    )
