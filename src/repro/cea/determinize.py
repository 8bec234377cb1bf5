"""On-the-fly I/O-determinization of a CEA (paper Sections 4 and 5.4).

Algorithm 1 requires an *I/O-deterministic* CEA: from any state and tuple
there is at most one marking (``•``) and one non-marking (``∘``) successor.
The classical subset construction gives this, but may be exponential, so —
exactly as CORE does — we determinize lazily while the stream is processed:

* a deterministic state is a frozenset of NFA states, interned to a small int;
* the tuple is first reduced to its predicate **bit-vector** (Section 5.4,
  see :class:`repro.cea.predicates.PredicateIndex`), and the pair
  ``(det_state, bit-vector)`` keys a transition cache, so each distinct
  combination is computed only once and each predicate is evaluated once per
  tuple.

The NEXT selection strategy (skip-till-next-match) is implemented here at the
branching level: when a marking successor exists, the non-marking branch is
suppressed, so each run deterministically consumes the earliest matching
event instead of forking. ALL (skip-till-any-match, the CEQL default) keeps
both branches. LAST/MAX are enumeration-time filters in the engine (see
DESIGN.md for why this preserves the measured behaviour).
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .automaton import CEA

BitVec = Tuple[bool, ...]


class DetCEA:
    """Lazily determinized view of a CEA, shared by Algorithm 1."""

    def __init__(self, cea: CEA, strategy: str = "all"):
        if strategy not in ("all", "next"):
            raise ValueError(f"unknown selection strategy {strategy!r}")
        self.cea = cea
        self.index = cea.index
        self.strategy = strategy
        self._sets: List[FrozenSet[int]] = []
        self._ids: Dict[FrozenSet[int], int] = {}
        self._finals: List[bool] = []
        self.q0 = self._intern(frozenset({cea.q0}))
        # (det_state, bitvec) -> (marking successor | None, non-marking | None)
        self._cache: Dict[Tuple[int, BitVec], Tuple[Optional[int], Optional[int]]] = {}

    def _intern(self, s: FrozenSet[int]) -> int:
        i = self._ids.get(s)
        if i is None:
            i = len(self._sets)
            self._ids[s] = i
            self._sets.append(s)
            self._finals.append(bool(s & self.cea.finals))
        return i

    def is_final(self, det_id: int) -> bool:
        return self._finals[det_id]

    @property
    def n_det_states(self) -> int:
        return len(self._sets)

    def step(self, det_id: int, bv: BitVec) -> Tuple[Optional[int], Optional[int]]:
        """Successors of ``det_id`` on a tuple with bit-vector ``bv``.

        Returns ``(q_mark, q_unmark)``, each a det-state id or None.
        """
        key = (det_id, bv)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        sat = self.index.satisfies
        adj = self.cea.adj
        mark_set: set = set()
        unmark_set: set = set()
        for p in self._sets[det_id]:
            for (g, mark, dst) in adj.get(p, ()):
                if sat(g, bv):
                    (mark_set if mark else unmark_set).add(dst)
        q_mark = self._intern(frozenset(mark_set)) if mark_set else None
        q_unmark = self._intern(frozenset(unmark_set)) if unmark_set else None
        if self.strategy == "next" and q_mark is not None:
            q_unmark = None
        out = (q_mark, q_unmark)
        self._cache[key] = out
        return out
