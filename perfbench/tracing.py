"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions and methods of the engine's
modules with timing wrappers and restores them on ``close``. Every wrapper
keeps a call count, inclusive time and self time (inclusive minus the time
of wrapped calls made inside it, found with a span stack). Raw spans are
kept only while ``sample`` is set, so memory stays bounded over millions of
calls. A wrapped call costs well under a microsecond more, so end-to-end
numbers are never taken from a traced run.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.cea import determinize, predicates
from repro.core import engine, partition, tecs

# name -> (owner, attribute); enumerate_matches is patched where the engine
# looks it up, because engine.py imports it by name.
ENGINE_LAYERS = {
    "predicates.bitvector": (predicates.PredicateIndex, "bitvector"),
    "determinize.step": (determinize.DetCEA, "step"),
    "tecs.bottom": (tecs.TECS, "bottom"),
    "tecs.extend": (tecs.TECS, "extend"),
    "tecs.union": (tecs.TECS, "union"),
    "tecs.merge": (tecs.TECS, "merge"),
    "tecs.insert": (tecs.TECS, "insert"),
    "enumerate": (engine, "enumerate_matches"),
    "engine.process": (engine.CoreEngine, "process"),
    "engine.prune": (engine.CoreEngine, "_prune"),
    "partition.route": (partition.PartitionedEngine, "process"),
}


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.extra: Dict[str, int] = defaultdict(int)
        self.sample = False
        self.event_id: Any = None
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def patch(self, name: str, owner: Any, attr: str,
              post: Optional[Callable[[tuple, Any], None]] = None) -> None:
        orig = getattr(owner, attr)
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kw):
            stack.append(0)
            t0 = clock()
            try:
                res = orig(*args, **kw)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
                if self.sample:
                    self.spans.append((self.event_id, name, t0, t0 + dt, len(stack)))
            if post is not None:
                post(args, res)
            return res

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def patch_engine(self) -> None:
        """Wrap every engine layer, with the counters that need arguments."""
        extra = self.extra

        def merge_post(args, res):
            extra["merge.list_len"] += len(args[1])

        def process_post(args, res):
            extra["outputs"] += len(res)
            extra["active_states"] += len(args[0].T)

        posts = {"tecs.merge": merge_post, "engine.process": process_post}
        for name, (owner, attr) in ENGINE_LAYERS.items():
            self.patch(name, owner, attr, posts.get(name))

    def close(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def incl_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def ns_per_call(self, name: str) -> float:
        n = self.calls(name)
        return self.self_ns(name) / n if n else 0.0

    def dump_spans(self, path) -> None:
        """Write sampled spans, each with the index of its parent span.

        Spans are appended when they end, so a span's parent is the first
        later span of one less depth in the same event.
        """
        out = []
        for k, (ev, name, t0, t1, depth) in enumerate(self.spans):
            parent = next(
                (m for m in range(k + 1, len(self.spans))
                 if self.spans[m][0] == ev and self.spans[m][4] == depth - 1),
                None,
            ) if depth else None
            out.append({"event": ev, "name": name, "start_ns": t0,
                        "end_ns": t1, "parent": parent})
        path.write_text(json.dumps(out))


def core_engines(engines: Iterable[Any]) -> List[engine.CoreEngine]:
    """The single-partition engines behind each top-level engine."""
    out: List[engine.CoreEngine] = []
    for eng in engines:
        if isinstance(eng, partition.PartitionedEngine):
            out.extend(eng.engines.values())
        else:
            out.append(eng)
    return out


def live_nodes(engines: Iterable[Any]) -> int:
    """tECS nodes reachable from the engines' union-lists (iterative walk)."""
    seen = set()
    todo = [n for eng in core_engines(engines) for ul in eng.T.values() for n in ul]
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        kind = type(n)
        if kind is tecs.Output:
            todo.append(n.child)
        elif kind is tecs.Union:
            todo.append(n.left)
            todo.append(n.right)
    return len(seen)


def layer_metrics(tr: Tracer, engines: List[Any], passes: int) -> Dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes; ``engines`` are the
    top-level engines of the last pass (counts are per pass)."""
    cores = core_engines(engines)
    parts = [e for e in engines if isinstance(e, partition.PartitionedEngine)]
    process_calls = tr.calls("engine.process")
    out: Dict[str, float] = {
        "predicates.bitvector.calls": tr.calls("predicates.bitvector") / passes,
        "predicates.bitvector.ns_per_call": tr.ns_per_call("predicates.bitvector"),
        "predicates.bitvector.share":
            tr.incl_ns("predicates.bitvector") / max(1, tr.incl_ns("engine.process")),
        "determinize.step.calls": tr.calls("determinize.step") / passes,
        "determinize.step.ns_per_call": tr.ns_per_call("determinize.step"),
        "determinize.cache_hit_ratio":
            1 - sum(len(e.det._cache) for e in cores)
            / max(1, tr.calls("determinize.step") / passes),
        "determinize.det_states": sum(e.det.n_det_states for e in cores),
    }
    for op in ("bottom", "extend", "union", "merge", "insert"):
        out[f"tecs.{op}.calls"] = tr.calls(f"tecs.{op}") / passes
        out[f"tecs.{op}.ns_per_call"] = tr.ns_per_call(f"tecs.{op}")
    out["tecs.merge.list_len_mean"] = (
        tr.extra["merge.list_len"] / max(1, tr.calls("tecs.merge")))
    out["tecs.nodes_created"] = sum(e.tecs.n_nodes for e in cores)
    n_out = tr.extra["outputs"]
    out["enumerate.calls"] = tr.calls("enumerate") / passes
    out["enumerate.outputs"] = n_out / passes
    out["enumerate.ns_per_output"] = tr.incl_ns("enumerate") / n_out if n_out else 0.0
    out["engine.process.self_ns"] = tr.ns_per_call("engine.process")
    out["engine.prune.calls"] = tr.calls("engine.prune") / passes
    out["engine.prune.ns_per_call"] = tr.ns_per_call("engine.prune")
    out["engine.active_states_mean"] = (
        tr.extra["active_states"] / process_calls if process_calls else 0.0)
    sizes = [[e.n_events for e in p.engines.values()] for p in parts]
    out["partition.route.self_ns"] = tr.ns_per_call("partition.route")
    out["partition.count"] = sum(len(s) for s in sizes)
    out["partition.max_events_share"] = max(
        (max(s) / sum(s) for s in sizes if s), default=0.0)
    return out
