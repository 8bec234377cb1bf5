"""Spark `applyInPandas` CER evaluation, checked against the DuckDB oracle
and against the driver-side engines.

Every result-checking test goes through ``repro.oracle.assert_equivalent``:
DuckDB runs the n-way self-join translation of the pattern over the same
events table and the sorted rows must match Spark's output exactly.
"""
import pandas as pd
import pytest

from repro.cea.ceql import compile_query
from repro.engines import make_engine, make_partitioned
from repro.oracle import assert_equivalent
from repro.spark.batch import run_batch, run_group
from repro.spark.sql_oracle import sequence_match_sql
from repro.streams.generators import stock_stream, to_pandas, typed_stream

N = 400  # events per test stream — enough for hundreds of matches


@pytest.fixture(scope="module")
def seq_events():
    return to_pandas(typed_stream(N, ["A", "B", "C", "X"], seed=5))


def test_sequence_query_matches_duckdb_oracle(spark, seq_events):
    cq = compile_query("SELECT * FROM S WHERE A; B; C WITHIN 20 events")
    got = run_batch(spark, seq_events, cq)
    sql = sequence_match_sql([["A"], ["B"], ["C"]], window=20)
    assert_equivalent(got, sql, events=seq_events)


def test_oracle_detects_wrong_result(spark, seq_events):
    cq = compile_query("SELECT * FROM S WHERE A; B; C WITHIN 20 events")
    got = run_batch(spark, seq_events, cq)
    sql = sequence_match_sql([["A"], ["B"], ["C"]], window=20)
    wrong = got.withColumn("end", got["end"] + 1)
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, sql, events=seq_events)


def test_sequence_query_no_window_oracle(spark):
    pdf = to_pandas(typed_stream(60, ["A", "B", "C"], seed=1))
    cq = compile_query("SELECT * FROM S WHERE A; B; C")
    got = run_batch(spark, pdf, cq)
    sql = sequence_match_sql([["A"], ["B"], ["C"]])
    assert_equivalent(got, sql, events=pdf)


def test_disjunction_query_matches_duckdb_oracle(spark, seq_events):
    cq = compile_query("SELECT * FROM S WHERE A; (B OR X); C WITHIN 15 events")
    got = run_batch(spark, seq_events, cq)
    sql = sequence_match_sql([["A"], ["B", "X"], ["C"]], window=15)
    assert_equivalent(got, sql, events=seq_events)


def test_filters_matches_duckdb_oracle(spark):
    events = to_pandas(typed_stream(300, ["A", "B"], seed=9))
    events["v"] = (events["pos"] * 7) % 10
    cq = compile_query(
        "SELECT * FROM S WHERE A as a; B as b FILTER a[v > 3] AND b[v <= 5] "
        "WITHIN 25 events"
    )
    got = run_batch(spark, events, cq)
    sql = sequence_match_sql(
        [["A"], ["B"]],
        window=25,
        filters=[[("v", ">", 3)], [("v", "<=", 5)]],
    )
    assert_equivalent(got, sql, events=events)


def test_partition_by_matches_duckdb_oracle(spark):
    events = to_pandas(typed_stream(300, ["A", "B"], seed=4))
    events["name"] = ["xyz"[i % 3] for i in range(len(events))]
    cq = compile_query(
        "SELECT * FROM S WHERE A; B PARTITION BY [name] WITHIN 12 events"
    )
    got = run_batch(spark, events, cq)
    sql = sequence_match_sql([["A"], ["B"]], window=12, partition_by=["name"])
    assert_equivalent(got, sql, events=events)


def test_partition_by_excludes_nulls(spark):
    events = to_pandas(
        [
            {"type": "A", "name": "x"},
            {"type": "B", "name": None},
            {"type": "B", "name": "x"},
        ]
    )
    cq = compile_query("SELECT * FROM S WHERE A; B PARTITION BY [name]")
    got = run_batch(spark, events, cq).toPandas()
    assert list(got["data"]) == ["0,2"]


@pytest.mark.parametrize("engine", ["sase", "esper", "flink"])
def test_baseline_engines_on_spark_match_oracle(spark, engine):
    pdf = to_pandas(typed_stream(150, ["A", "B", "C"], seed=2))
    cq = compile_query("SELECT * FROM S WHERE A; B WITHIN 10 events")
    got = run_batch(spark, pdf, cq, engine=engine)
    sql = sequence_match_sql([["A"], ["B"]], window=10)
    assert_equivalent(got, sql, events=pdf)


def test_stock_time_window_on_spark_vs_driver(spark):
    """Time-attribute windows: Spark run equals the driver-side engine."""
    events = stock_stream(800, seed=3)
    pdf = to_pandas(events)
    cq = compile_query(
        "SELECT * FROM S WHERE SELL as a; BUY as b FILTER a[name='MSFT'] "
        "AND b[name='MSFT'] WITHIN 5000 [stock_time]"
    )
    got = set(
        run_batch(spark, pdf, cq).toPandas()[["start", "end", "data"]]
        .itertuples(index=False, name=None)
    )
    eng = make_engine("core", cq.cea, window=cq.window, consume=cq.consume)
    expected = set()
    for pos, t in enumerate(events):
        for (s, e, data) in eng.process(t, ts=cq.ts_of(t, pos), pos=pos):
            expected.add((s, e, ",".join(map(str, data))))
    assert got == expected


def test_partitioned_stock_query_spark_vs_driver(spark):
    events = stock_stream(600, seed=6)
    pdf = to_pandas(events)
    cq = compile_query(
        "SELECT * FROM S WHERE SELL as a; BUY as b PARTITION BY [volume] "
        "WITHIN 8000 [stock_time]"
    )
    got = set(
        run_batch(spark, pdf, cq).toPandas()[["start", "end", "data"]]
        .itertuples(index=False, name=None)
    )
    eng = make_partitioned(
        "core", cq.cea, cq.partition_by, window=cq.window, consume=cq.consume
    )
    expected = set()
    for pos, t in enumerate(events):
        for (s, e, data) in eng.process(t, ts=cq.ts_of(t, pos), pos=pos):
            expected.add((s, e, ",".join(map(str, data))))
    assert got == expected


def test_run_group_driver_side():
    pdf = to_pandas(typed_stream(50, ["A", "B"], seed=0))
    cq = compile_query("SELECT * FROM S WHERE A; B WITHIN 5 events")
    out = run_group(pdf, cq, "core", None, [])
    assert set(out.columns) == {"partition", "start", "end", "data"}
    assert (out["end"] - out["start"] <= 5).all()


def test_consume_query_on_spark(spark):
    pdf = to_pandas(typed_stream(100, ["A", "B"], seed=8))
    cq = compile_query("SELECT * FROM S WHERE A; B WITHIN 10 events CONSUME BY ANY")
    got = run_batch(spark, pdf, cq).toPandas().sort_values("end")
    # Consumption: matches emitted at one position may share events, but no
    # match may reuse events seen before an earlier (distinct) match position.
    prev_batch_end = -1
    for e in sorted(got["end"].unique()):
        batch = got[got["end"] == e]
        assert (batch["start"] > prev_batch_end).all()
        prev_batch_end = e
