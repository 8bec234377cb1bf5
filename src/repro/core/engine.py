"""CORE's incremental evaluation engine — paper Algorithm 1 + Section 5.4.

Per input tuple the engine:

1. evaluates every distinct atomic predicate once, producing the tuple's
   bit-vector (Section 5.4);
2. starts a potential new run from the (I/O-determinized, on-the-fly) initial
   state with a fresh bottom node — runs may begin at any stream position;
3. executes the marking/non-marking transitions of every active state in
   *insertion order* (``ordered-keys``), which processes states in
   non-increasing max-start order — the precondition of ``insert``;
4. enumerates all complex events ending here from the union-lists of final
   states (Algorithm 2), with output-linear delay;
5. prunes union-list tails whose max-start fell out of the WITHIN window —
   the amortized-constant analogue of the paper's weak-reference GC — keeping
   live state O(window · |Q|).

Cost per tuple is O(|Q|·|Δ|) plus enumeration — constant in data complexity,
independent of stream length, window size and number of partial matches;
this is precisely the property the Section 6 experiments measure.

Selection strategies: ``all`` (default, skip-till-any-match) and ``next``
change the automaton branching (see ``determinize``); ``last`` and ``max``
are enumeration-time filters over the ``all`` automaton (per-event batch:
``last`` keeps the latest-positions match per start, ``max`` keeps matches
whose position set is not strictly contained in another's).
"""
from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional

from ..cea.automaton import CEA
from ..cea.determinize import DetCEA
from .enumerate import Match, enumerate_matches
from .tecs import Node, TECS

STRATEGIES = ("all", "next", "last", "max")


class CoreEngine:
    """Single-partition CORE engine (the paper's Algorithm 1).

    Parameters
    ----------
    cea:
        compiled (non-deterministic) CEA; determinized on the fly.
    window:
        the WITHIN bound ε (same units as the ``ts`` passed to ``process``),
        or None for no window.
    consume:
        the experiments' consumption policy — forget all partial matches when
        a complex event is found (the only policy Esper and SASE both
        support, hence used for all systems in Section 6).
    limit:
        cap on enumerated results per input event (the paper logs only the
        first 10).
    strategy:
        'all' | 'next' | 'last' | 'max'.
    timed:
        collect the update-vs-enumeration split used by Figure 7.
    """

    def __init__(
        self,
        cea: CEA,
        window: Optional[float] = None,
        *,
        consume: bool = False,
        limit: Optional[int] = None,
        strategy: str = "all",
        timed: bool = False,
        debug: bool = False,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown selection strategy {strategy!r}; expected one of "
                f"{STRATEGIES}"
            )
        self.det = DetCEA(cea, strategy="next" if strategy == "next" else "all")
        self.strategy = strategy
        self.window = window
        self.consume = consume
        self.limit = limit
        self.timed = timed
        self.tecs = TECS(debug=debug)
        # ordered-keys(T): Python dicts preserve insertion order.
        self.T: Dict[int, List[Node]] = {}
        self._count = 0
        self.n_events = 0
        self.n_outputs = 0
        self.update_time = 0.0
        self.enum_time = 0.0

    # ------------------------------------------------------------------
    def process(
        self,
        t: Mapping[str, Any],
        ts: Optional[float] = None,
        pos: Optional[int] = None,
        enumerate_outputs: bool = True,
    ) -> List[Match]:
        """Feed one tuple; return the complex events ending at this tuple.

        ``pos`` is the tuple's global stream position (defaults to an
        internal counter); ``ts`` its time (defaults to ``pos`` — count-based
        windows, as in the synthetic experiments).
        """
        j = self._count if pos is None else pos
        self._count += 1
        now = float(j) if ts is None else ts
        self.n_events += 1

        t0 = time.perf_counter() if self.timed else 0.0

        bv = self.det.index.bitvector(t)
        T2: Dict[int, List[Node]] = {}
        # Lines 7-8: a new run may start at the current position.
        b = self.tecs.bottom(j, now)
        self._exec_trans(self.det.q0, [b], b, bv, j, T2)
        # Lines 9-10: extend every active state, in insertion order.
        for p, ul in self.T.items():
            n = ul[0] if len(ul) == 1 else self.tecs.merge(ul)
            self._exec_trans(p, ul, n, bv, j, T2)
        self.T = T2

        if self.timed:
            t1 = time.perf_counter()
            self.update_time += t1 - t0

        # OUTPUT (lines 29-33).
        matches: List[Match] = []
        if enumerate_outputs:
            is_final = self.det.is_final
            for p, ul in self.T.items():
                if is_final(p):
                    n = ul[0] if len(ul) == 1 else self.tecs.merge(ul)
                    enumerate_matches(n, j, now, self.window, self.limit, matches)
                    if self.limit is not None and len(matches) >= self.limit:
                        break
            if matches and self.strategy in ("last", "max"):
                matches = _apply_strategy(self.strategy, matches)
            self.n_outputs += len(matches)
        elif self.consume:
            # Even without enumeration, the consumption policy needs to know
            # whether a match exists (constant-time check on final states).
            matches = [
                (j, j, ())
                for p in self.T
                if self.det.is_final(p)
                and self.T[p][0].max_start >= (
                    -float("inf") if self.window is None else now - self.window
                )
            ][:1]

        if self.timed:
            self.enum_time += time.perf_counter() - t1

        if matches and self.consume:
            # Consumption policy: forget all events read so far.
            self.T = {}
        else:
            self._prune(now)
        return matches

    # ------------------------------------------------------------------
    def _exec_trans(
        self,
        p: int,
        ul: List[Node],
        n: Node,
        bv,
        j: int,
        T2: Dict[int, List[Node]],
    ) -> None:
        """ExecTrans (Algorithm 1 lines 13-20): ``n`` is merge(ul)."""
        q_mark, q_unmark = self.det.step(p, bv)
        if q_mark is not None:
            n2 = self.tecs.extend(n, j)
            cur = T2.get(q_mark)
            if cur is None:
                T2[q_mark] = [n2]
            else:
                self.tecs.insert(cur, n2)
        if q_unmark is not None:
            cur = T2.get(q_unmark)
            if cur is None:
                T2[q_unmark] = list(ul)
            else:
                self.tecs.insert(cur, n)

    def _prune(self, now: float) -> None:
        """Window GC: drop union-list tails with max-start out of window."""
        if self.window is None:
            return
        tau = now - self.window
        dead = []
        for p, ul in self.T.items():
            while ul and ul[-1].max_start < tau:
                ul.pop()
            if not ul:
                dead.append(p)
        for p in dead:
            del self.T[p]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.T = {}

    @property
    def n_active_states(self) -> int:
        return len(self.T)

    @property
    def n_nodes_created(self) -> int:
        return self.tecs.n_nodes


def _apply_strategy(strategy: str, matches: List[Match]) -> List[Match]:
    """Enumeration-time LAST / MAX filters (per-event batch)."""
    if strategy == "last":
        best: Dict[int, Match] = {}
        for m in matches:
            cur = best.get(m[0])
            if cur is None or m[2] > cur[2]:
                best[m[0]] = m
        return list(best.values())
    # max: drop matches strictly contained in another match's positions.
    sets = [frozenset(m[2]) for m in matches]
    out = []
    for i, m in enumerate(matches):
        if not any(i != k and sets[i] < sets[k] for k in range(len(matches))):
            out.append(m)
    return out
