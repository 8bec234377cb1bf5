"""Output checks: every per-event output list of a run is checked here.

Each function takes the stream and the per-event outputs of one engine
(``outs[j]`` is what ``process`` returned for event ``j``) and returns the
number of events whose output failed a check. Checks compare per-event
*counts* and the validity of each match, never which matches came back:
with a cap of ``limit`` outputs per event, a change to the tECS may
legitimately change which ones are enumerated first.
"""
from __future__ import annotations

from typing import Any, List, Mapping, Sequence

from repro.cea.ceql import CompiledQuery
from repro.engines import make_engine, make_partitioned

Outs = Sequence[Sequence[tuple]]


def _sorted_distinct(out: Sequence[tuple]) -> bool:
    """No duplicate match in one event's list, each with ascending positions."""
    if len(set(out)) != len(out):
        return False
    return all(
        all(a < b for a, b in zip(d, d[1:])) and d and d[0] == s and d[-1] == e
        for s, e, d in out
    )


def kleene(events: Sequence[Mapping[str, Any]], outs: Outs, window: int, limit: int) -> int:
    """``A1; A2+; A3 WITHIN window events`` without consumption.

    The exact number of matches ending at an A3 event j is the sum over the
    A1 events i with j - window <= i < j of 2**(#A2 strictly between) - 1.
    """
    types = [e["type"] for e in events]
    a2_before = [0] * (len(types) + 1)  # number of A2 events in [0, k)
    for k, t in enumerate(types):
        a2_before[k + 1] = a2_before[k] + (t == "A2")
    a1s: List[int] = []
    failed = 0
    for j, out in enumerate(outs):
        exact = 0
        if types[j] == "A3":
            exact = sum(
                2 ** (a2_before[j] - a2_before[i + 1]) - 1
                for i in a1s
                if i >= j - window
            )
        ok = _sorted_distinct(out) and len(out) == min(limit, exact)
        for s, e, d in out:
            ok = ok and (
                e == j
                and s >= j - window
                and len(d) >= 3
                and types[d[0]] == "A1"
                and types[j] == "A3"
                and all(types[k] == "A2" for k in d[1:-1])
            )
        failed += not ok
        if types[j] == "A1":
            a1s.append(j)
            if len(a1s) > window:
                del a1s[: len(a1s) - window]
    return failed


def q7(events: Sequence[Mapping[str, Any]], outs: Outs, cq: CompiledQuery, limit: int) -> int:
    """``SELL; (BUY OR SELL)+; SELL`` on MSFT, with consumption.

    Every event is BUY or SELL, so a start i (a SELL of MSFT after the last
    consuming event) and an end j (a SELL of MSFT) give 2**(j-i-1) - 1
    matches, when j's time is within the window of i's.
    """
    starts: List[int] = []
    failed = 0
    for j, out in enumerate(outs):
        is_end = events[j]["type"] == "SELL" and events[j]["name"] == "MSFT"
        exact = 0
        if is_end:
            tau = cq.ts_of(events[j], j) - cq.window
            starts = [i for i in starts if cq.ts_of(events[i], i) >= tau]
            exact = sum(2 ** (j - i - 1) - 1 for i in starts)
        ok = _sorted_distinct(out) and len(out) == min(limit, exact)
        for s, e, d in out:
            ok = ok and e == j and len(d) >= 3 and s in starts
        failed += not ok
        if exact:
            starts = []  # CONSUME BY ANY forgets every partial match
        elif is_end:
            starts.append(j)
    return failed


def esper_reference(cq: CompiledQuery, events: Sequence[Mapping[str, Any]]) -> List[set]:
    """Per-event match sets of the Esper-style baseline, uncapped."""
    kw = dict(window=cq.window, consume=cq.consume, limit=None)
    if cq.partition_by:
        eng = make_partitioned("esper", cq.cea, cq.partition_by, **kw)
    else:
        eng = make_engine("esper", cq.cea, **kw)
    return [
        set(eng.process(e, ts=cq.ts_of(e, j), pos=j)) for j, e in enumerate(events)
    ]


def against_reference(outs: Outs, ref: Sequence[set], limit: int) -> int:
    """Each list holds min(limit, |ref|) distinct matches, all from ``ref``."""
    return sum(
        not (_sorted_distinct(out) and len(out) == min(limit, len(r)) and set(out) <= r)
        for out, r in zip(outs, ref)
    )


def distinct_capped(outs: Outs, limit: int) -> int:
    """Lists with no reference: distinct, well-formed and within the cap."""
    return sum(not (_sorted_distinct(o) and len(o) <= limit) for o in outs)


def spark_rows(
    rows: Sequence[tuple],
    ref: Sequence[set],
    events: Sequence[Mapping[str, Any]],
    pcol: str,
    limit: int,
) -> int:
    """Spark rows ``(partition, start, end, data)`` of one query, grouped by
    end event and checked like an engine's lists; each row must also be
    labelled with its event's partition."""
    outs: List[List[tuple]] = [[] for _ in ref]
    mislabelled = 0
    for part, s, e, data in rows:
        outs[e].append((s, e, tuple(int(x) for x in data.split(","))))
        mislabelled += part != str(events[e][pcol])
    return mislabelled + against_reference(outs, ref, limit)
