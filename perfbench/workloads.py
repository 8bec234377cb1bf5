"""The driver workloads: CEQL queries fed one event at a time to
``CoreEngine`` / ``PartitionedEngine``, in a closed loop from one caller.

A workload is a set of queries and a seeded stream. Every pass builds fresh
engines and feeds the whole in-memory stream to each query's engine in
turn, back to back, as the paper's Section 6 does.
"""
from __future__ import annotations

import gc
import math
import os
import statistics
import time
import tracemalloc
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from repro.cea.ceql import CompiledQuery, compile_query
from repro.engines import make_engine, make_partitioned
from repro.harness.stock_queries import STOCK_QUERIES
from repro.streams.generators import stock_stream, typed_stream

import checks
from tracing import Tracer, layer_metrics, live_nodes

LIMIT = 10  # outputs enumerated per event, as in the paper's experiments
SETUPS_PER_PASS = 10
MIN_PASSES = 5
SAMPLE_EVERY = 997  # keep raw spans for one event in this many
CHUNK = 500  # process() calls timed together for throughput
STOCK_CHECK_PREFIX = 5_000  # events checked against the Esper-style baseline

KLEENE = "SELECT * FROM S WHERE A1; A2+; A3 WITHIN 100 events"
STOCK_EVENTS = 20_000
STOCK_DAYS = 40
DAY_MS = 86_400_000


def stock_days(seed: int) -> List[Dict[str, Any]]:
    """STOCK_EVENTS events of ``stock_stream`` over STOCK_DAYS trading days.

    Each day is seeded on its own and starts its price walks from the base
    prices, so a run averages over several walks instead of hanging on one
    (whether a walk stays above a Q2/Q5 price threshold moves the work per
    event by a sixth). Days are a whole ``DAY_MS`` apart: no window spans
    two of them."""
    events = []
    for d in range(STOCK_DAYS):
        for e in stock_stream(STOCK_EVENTS // STOCK_DAYS, seed=seed * STOCK_DAYS + d):
            e["stock_time"] += d * DAY_MS
            events.append(e)
    return events


@dataclass
class Workload:
    queries: Dict[str, str]
    stream: Callable[[int], List[Dict[str, Any]]]
    check: Callable[[List[Dict[str, Any]], List[CompiledQuery], List[list]], int]


def _check_stock(events, cqs, outs) -> int:
    """Q1-Q6 against the baseline on a prefix, Q7 by its closed form."""
    failed = 0
    for name, cq, o in zip(STOCK_QUERIES, cqs, outs):
        if name == "Q7":  # uncapped enumeration of Q7 is exponential
            failed += checks.q7(events, o, cq, LIMIT)
        else:
            ref = checks.esper_reference(cq, events[:STOCK_CHECK_PREFIX])
            failed += checks.against_reference(o, ref, LIMIT)
            failed += checks.distinct_capped(o[STOCK_CHECK_PREFIX:], LIMIT)
    return failed


def _check_kleene(events, cqs, outs) -> int:
    return checks.kleene(events, outs[0], int(cqs[0].window), LIMIT)


WORKLOADS = {
    "stock-q1q7": Workload(
        dict(STOCK_QUERIES), stock_days, _check_stock),
    "kleene-nocons": Workload(
        {"kleene": KLEENE},
        lambda seed: typed_stream(50_000, ["A1", "A2", "A3", "B1"], seed=seed),
        _check_kleene),
}


def build(cq: CompiledQuery) -> Any:
    kw = dict(window=cq.window, consume=cq.consume, limit=LIMIT, strategy=cq.strategy)
    if cq.partition_by:
        return make_partitioned("core", cq.cea, cq.partition_by, **kw)
    return make_engine("core", cq.cea, **kw)


def setup(texts: Sequence[str]):
    """Compile every query and build its engine (what a user waits for)."""
    cqs = [compile_query(t) for t in texts]
    return cqs, [build(cq) for cq in cqs]


def ref_kernel_ms(n: int = 200_000) -> float:
    """A fixed pure-Python loop, timed to tell host drift from regressions."""
    t0 = time.perf_counter_ns()
    acc, d = 0, {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        d[i & 1023] = acc
    return (time.perf_counter_ns() - t0) / 1e6


def quickest(cpus) -> int:
    """The CPU that runs a short ``ref_kernel_ms`` fastest now."""
    def probe(cpu):
        os.sched_setaffinity(0, {cpu})
        return min(ref_kernel_ms(10_000) for _ in range(2))
    return min(cpus, key=probe)


def timestamps(cqs, events) -> List[List[float]]:
    return [[cq.ts_of(e, j) for j, e in enumerate(events)] for cq in cqs]


def feed(engines, events, ts, tracer: Tracer = None):
    """One pass: every event to every engine. Returns (wall ns, outputs)."""
    clock = time.perf_counter_ns
    outs = []
    t0 = clock()
    for q, (eng, tq) in enumerate(zip(engines, ts)):
        proc = eng.process
        o = []
        keep = o.append
        if tracer is not None:
            for j, e in enumerate(events):
                tracer.sample = j % SAMPLE_EVERY == 0
                tracer.event_id = (q, j)
                keep(proc(e, ts=tq[j], pos=j))
            tracer.sample = False
        else:
            for j, e in enumerate(events):
                keep(proc(e, ts=tq[j], pos=j))
        outs.append(o)
    return clock() - t0, outs


def timed_feed(engines, events, ts, lat, chunks):
    """One pass like ``feed``, timing every ``process()`` call into ``lat``
    and every CHUNK calls' wall time into ``chunks``. Returns the outputs.

    A full collection first starts Python's collector from the same state,
    so its pauses land on the same calls in every pass, and freezing what
    exists then (the stream, the checker's copy of the first outputs)
    leaves the collector only the engines' own objects to walk, as in a
    program that holds nothing else."""
    gc.collect()
    gc.freeze()
    try:
        return _timed_feed(engines, events, ts, lat, chunks)
    finally:
        gc.unfreeze()


def _timed_feed(engines, events, ts, lat, chunks):
    clock = time.perf_counter_ns
    add, mark = lat.append, chunks.append
    n = len(events)
    outs = []
    for eng, tq in zip(engines, ts):
        proc = eng.process
        o = []
        keep = o.append
        for start in range(0, n, CHUNK):
            c = clock()
            for j in range(start, min(n, start + CHUNK)):
                a = clock()
                r = proc(events[j], ts=tq[j], pos=j)
                add(clock() - a)
                keep(r)
            mark(clock() - c)
        outs.append(o)
    return outs


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def live_state_bytes(texts, events) -> int:
    """Bytes still allocated by fresh engines after the whole stream.

    Untimed: ``tracemalloc`` slows every allocation."""
    cqs = [compile_query(t) for t in texts]
    ts = timestamps(cqs, events)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engines = [build(cq) for cq in cqs]
        for eng, tq in zip(engines, ts):
            for j, e in enumerate(events):
                eng.process(e, ts=tq[j], pos=j)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


class Checked:
    """Collects each pass's outputs. ``finish`` checks the first pass in
    full; every later pass must repeat its per-event counts, because the
    engine is deterministic."""

    def __init__(self, wl: Workload, events) -> None:
        self.wl, self.events = wl, events
        self.cqs = self.first_outs = self._counts = None
        self.attempted = self.failed = 0

    def __call__(self, cqs, outs) -> None:
        counts = [[len(r) for r in o] for o in outs]
        self.attempted += sum(map(len, counts))
        if self._counts is None:
            self.cqs, self.first_outs, self._counts = cqs, outs, counts
        else:
            self.failed += sum(
                a != b for x, y in zip(counts, self._counts) for a, b in zip(x, y))

    def finish(self) -> "Checked":
        self.failed += self.wl.check(self.events, self.cqs, self.first_outs)
        return self


def run_driver(wl: Workload, events, seconds: float):
    """Timed passes until ``seconds`` have gone by (at least MIN_PASSES),
    each after a host-speed probe and fresh set-ups. Returns the end-to-end
    numbers, run facts and the checker.

    Every pass repeats the same calls, so each call and each chunk of CHUNK
    calls is timed once per pass and its best time kept: a slow spell of the
    host then has to cover the same call in every pass to show. Each pass
    runs on the CPU that is quickest just before it, as other tenants of a
    shared host load its CPUs unevenly."""
    texts = list(wl.queries.values())
    best = chunk_best = None
    setup_s, host, per_pass = [], [], []
    checked = Checked(wl, events)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    deadline = time.perf_counter() + seconds
    try:
        while len(per_pass) < MIN_PASSES or time.perf_counter() < deadline:
            if cpus:
                os.sched_setaffinity(0, {quickest(cpus)})
            host.append(ref_kernel_ms())
            for _ in range(SETUPS_PER_PASS):
                t0 = time.perf_counter_ns()
                cqs, engines = setup(texts)
                setup_s.append((time.perf_counter_ns() - t0) / 1e9)
            ts = timestamps(cqs, events)
            lat, chunks = array("q"), array("q")
            outs = timed_feed(engines, events, ts, lat, chunks)
            if best is None:
                best, chunk_best = lat, chunks
            else:
                best = array("q", map(min, best, lat))
                chunk_best = array("q", map(min, chunk_best, chunks))
            s = sorted(lat)
            per_pass.append([sum(chunks) / 1e9]
                            + [percentile(s, q) / 1e3 for q in (0.5, 0.99, 0.999)])
            checked(cqs, outs)
            del outs, engines
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    host.append(ref_kernel_ms())
    best_sorted = sorted(best)
    metrics = {
        "throughput_eps": len(best) / (sum(chunk_best) / 1e9),
        "latency_p50_us": percentile(best_sorted, 0.50) / 1e3,
        "latency_p99_us": percentile(best_sorted, 0.99) / 1e3,
        "latency_p999_us": percentile(best_sorted, 0.999) / 1e3,
        "setup_s": statistics.median(setup_s),
        "live_state_bytes": live_state_bytes(texts, events),
    }
    info = {"passes": len(per_pass), "latency_samples": len(best),
            "setup_samples": len(setup_s), "host_ref_kernel_ms": host,
            "per_pass_s_p50_p99_p999": per_pass}
    return metrics, info, checked.finish()


def trace_driver(wl: Workload, events, seconds: float, spans_path):
    """Alternate untraced and traced passes; per-layer metrics of the
    traced ones, overhead from the ratio of their medians."""
    texts = list(wl.queries.values())
    compile_ms, host, plain, traced = [], [], [], []
    checked = Checked(wl, events)
    tr = Tracer()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        host.append(ref_kernel_ms())
        t0 = time.perf_counter_ns()
        cqs = [compile_query(t) for t in texts]
        compile_ms.append((time.perf_counter_ns() - t0) / 1e6)
        ts = timestamps(cqs, events)
        wall, outs = feed([build(cq) for cq in cqs], events, ts)
        plain.append(wall)
        checked(cqs, outs)
        engines = [build(cq) for cq in cqs]
        tr.patch_engine()
        try:
            wall, outs = feed(engines, events, ts, tracer=tr)
        finally:
            tr.close()
        traced.append(wall)
        checked(cqs, outs)
        del outs
    out = layer_metrics(tr, engines, len(traced))
    out["tecs.live_nodes_half"], out["tecs.live_nodes_end"] = _live_nodes_walk(
        cqs, events, ts)
    out["ceql.compile_ms"] = statistics.median(compile_ms)
    out["host.ref_kernel_ms"] = statistics.median(host)
    out["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    tr.dump_spans(spans_path)
    info = {"passes": len(traced), "spans": len(tr.spans), "host_ref_kernel_ms": host}
    return out, info, checked.finish()


def _live_nodes_walk(cqs, events, ts):
    """Reachable tECS nodes half-way through the stream and at its end."""
    engines = [build(cq) for cq in cqs]
    half = len(events) // 2
    at_half = 0
    for eng, tq in zip(engines, ts):
        for j, e in enumerate(events):
            eng.process(e, ts=tq[j], pos=j)
            if j == half - 1:
                at_half += live_nodes([eng])
    return at_half, live_nodes(engines)
