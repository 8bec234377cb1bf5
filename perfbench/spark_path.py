"""The Spark layer, measured in the stock-q1q7 traced run: Q3 and Q6
(PARTITION BY volume) through ``repro.spark.batch.run_batch`` on a fresh
local Spark session over the workload's stream, results collected.

The session's first jobs are the cold run; the jobs that follow are warm.
Every job's rows are checked against the Esper-style baseline.
"""
from __future__ import annotations

import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.cea.ceql import compile_query
from repro.core import engine
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams.generators import to_pandas

import checks
import workloads
from tracing import Tracer

QUERIES = ("Q3", "Q6")
WARM_JOBS = 3


def _spark_env(root: Path, work: Path) -> None:
    """Point Spark, its JVM and its Python workers at the checkout.

    Python workers import ``repro`` themselves, so ``src`` must be on their
    ``PYTHONPATH``; every scratch directory lives under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cores = min(4, os.cpu_count() or 1)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]", "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1", "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--driver-java-options",
        shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "pyspark-shell",
    ])


def _stop(spark) -> None:
    """Stop the session and wait for the JVM, which exits when its stdin
    closes (it launched and reaps the Python workers)."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    if gw is not None:
        gw.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _tasks(sc, group: str):
    """(tasks, failed tasks) of every stage of the jobs in ``group``."""
    st = sc.statusTracker()
    tasks = failed = 0
    for jid in st.getJobIdsForGroup(group):
        job = st.getJobInfo(jid)
        for sid in job.stageIds if job else ():
            stage = st.getStageInfo(sid)
            if stage:
                tasks += stage.numTasks
                failed += stage.numFailedTasks
    return tasks, failed


def layers(root: Path, work: Path, events):
    """Spark-layer metrics, with the events fed and rows failing checks."""
    _spark_env(root, work)
    pdf = to_pandas(events)
    cqs = [compile_query(STOCK_QUERIES[q]) for q in QUERIES]
    refs = [checks.esper_reference(cq, events) for cq in cqs]
    attempted = failed = 0
    t0 = time.perf_counter()
    from pyspark.sql import SparkSession

    from repro.spark.batch import run_batch

    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.sql.shuffle.partitions", "64")
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .getOrCreate())
    session_s = time.perf_counter() - t0
    try:
        sc = spark.sparkContext
        sc.setLogLevel("ERROR")
        sdf = spark.createDataFrame(pdf)
        plans = [run_batch(spark, sdf, cq, limit=workloads.LIMIT) for cq in cqs]
        walls, create_df, tasks, failed_tasks = [], [], 0, 0
        for rep in range(1 + WARM_JOBS):
            group = f"rep{rep}"
            sc.setJobGroup(group, group)
            t0 = time.perf_counter()
            rows = [[tuple(r) for r in p.collect()] for p in plans]
            walls.append(time.perf_counter() - t0)
            for r, ref, cq in zip(rows, refs, cqs):
                failed += checks.spark_rows(
                    r, ref, events, cq.partition_by[0], workloads.LIMIT)
            attempted += len(QUERIES) * len(events)
            tasks, f = _tasks(sc, group)
            failed_tasks += f
            t0 = time.perf_counter()
            spark.createDataFrame(pdf)
            create_df.append(time.perf_counter() - t0)
    finally:
        _stop(spark)
    values = {
        "spark.session_s": session_s,
        "spark.cold_job_s": walls[0],
        "spark.create_df_s": statistics.median(create_df),
        "spark.job_s": statistics.median(walls[1:]),
        "spark.tasks": tasks,
        "spark.failed_tasks": failed_tasks,
    }
    values.update(_run_group_layers(pdf, cqs))
    return values, attempted, failed


def _run_group_layers(pdf, cqs):
    """``run_group`` on the driver over the groups Spark forms: its time,
    and the share of it not spent in the engine's ``process``."""
    from repro.spark import batch

    groups = [(cq, g) for cq in cqs
              for _, g in pdf.dropna(subset=list(cq.partition_by))
              .groupby(list(cq.partition_by))]

    def all_groups():
        t0 = time.perf_counter()
        for cq, g in groups:
            batch.run_group(g, cq, "core", workloads.LIMIT, cq.partition_by)
        return time.perf_counter() - t0

    plain = all_groups()
    tr = Tracer()
    tr.patch("spark.run_group", batch, "run_group")
    tr.patch("engine.process", engine.CoreEngine, "process")
    try:
        all_groups()
    finally:
        tr.close()
    share = 1 - tr.incl_ns("engine.process") / tr.incl_ns("spark.run_group")
    return {"spark.run_group_s": plain, "spark.row_conversion_share": share}
