"""Behavioural tests for CORE's Algorithm-1 engine."""
import pytest

from helpers import stream_of
from repro.cea import brute, cel
from repro.cea.automaton import compile_cel
from repro.core.engine import CoreEngine

A, B, C = (cel.EventType(x) for x in "ABC")
SEQ3 = compile_cel(cel.seq(A, B, C))


def _feed(eng, stream, ts_of=None):
    out = []
    for i, t in enumerate(stream):
        ts = None if ts_of is None else ts_of(t, i)
        out.append(eng.process(t, ts=ts, pos=i))
    return out


def test_incremental_outputs_end_at_current_position():
    eng = CoreEngine(SEQ3)
    batches = _feed(eng, stream_of("A", "B", "C", "C"))
    assert batches[0] == [] and batches[1] == []
    assert set(batches[2]) == {(0, 2, (0, 1, 2))}
    assert set(batches[3]) == {(0, 3, (0, 1, 3))}


def test_limit_caps_per_event_enumeration():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)), limit=2)
    stream = stream_of("A", "A", "A", "A", "B")
    batches = _feed(eng, stream)
    assert len(batches[-1]) == 2


def test_consume_resets_state():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)), consume=True)
    batches = _feed(eng, stream_of("A", "B", "B"))
    # second B would match the first A under skip-till-any, but the match at
    # position 1 consumed it.
    assert set(batches[1]) == {(0, 1, (0, 1))}
    assert batches[2] == []


def test_update_only_mode_skips_enumeration_but_detects_for_consume():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)), consume=True)
    b0 = eng.process({"type": "A"}, enumerate_outputs=False)
    b1 = eng.process({"type": "B"}, enumerate_outputs=False)
    assert b0 == [] and len(b1) == 1  # sentinel match, no enumeration
    assert eng.n_active_states == 0  # consumed


def test_window_excludes_old_starts():
    eng = CoreEngine(SEQ3, window=2)
    batches = _feed(eng, stream_of("A", "B", "X", "C"))
    assert batches[3] == []  # 3 - 0 > 2
    eng2 = CoreEngine(SEQ3, window=3)
    batches2 = _feed(eng2, stream_of("A", "B", "X", "C"))
    assert set(batches2[3]) == {(0, 3, (0, 1, 3))}


def test_time_attribute_window():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)), window=10.0)
    stream = [
        {"type": "A", "ts": 0},
        {"type": "B", "ts": 5},
        {"type": "B", "ts": 100},
    ]
    batches = _feed(eng, stream, ts_of=lambda t, i: float(t["ts"]))
    assert set(batches[1]) == {(0, 1, (0, 1))}
    assert batches[2] == []  # 100 - 0 > 10


def test_window_gc_bounds_active_state():
    """The weak-reference-GC analogue: with a window, union-list tails are
    pruned so live state does not grow with stream length."""
    cea = compile_cel(cel.seq(A, B, C))
    eng = CoreEngine(cea, window=20)
    sizes = []
    stream = stream_of(*(["A", "B"] * 500))  # C never arrives
    for i, t in enumerate(stream):
        eng.process(t, pos=i)
        sizes.append(sum(len(ul) for ul in eng.T.values()))
    assert max(sizes[100:]) <= max(sizes[:100]) + 2  # flat, not growing


def test_no_window_means_no_pruning():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)))
    for i in range(50):
        eng.process({"type": "A"}, pos=i)
    # every A keeps an open partial match alive
    assert any(len(ul) > 0 for ul in eng.T.values())
    got = eng.process({"type": "B"}, pos=50)
    assert len(got) == 50


def test_stats_counters():
    eng = CoreEngine(compile_cel(cel.Seq(A, B)), timed=True)
    _feed(eng, stream_of("A", "B"))
    assert eng.n_events == 2
    assert eng.n_outputs == 1
    assert eng.update_time > 0 and eng.enum_time >= 0
    assert eng.n_nodes_created > 0


def test_debug_mode_invariants_hold_on_busy_stream():
    eng = CoreEngine(
        compile_cel(cel.seq(A, cel.Plus(cel.Or(B, C)), A)), window=8, debug=True
    )
    stream = stream_of(*(["A", "B", "C", "B", "A", "C"] * 20))
    for i, t in enumerate(stream):
        eng.process(t, pos=i)  # debug asserts fire on violation


@pytest.mark.parametrize("strategy", ["all", "next", "last", "max"])
def test_strategies_subset_of_all(strategy):
    phi = cel.seq(A, cel.Plus(B), C)
    cea = compile_cel(phi)
    stream = stream_of("A", "B", "B", "C")
    eng_all = CoreEngine(cea)
    all_out = set().union(*(_feed(eng_all, stream)or [set()])[-1:])
    eng = CoreEngine(cea, strategy=strategy)
    out = set().union(*(_feed(eng, stream) or [set()])[-1:])
    assert out <= all_out or strategy == "all"


def test_next_strategy_single_match_per_start():
    phi = cel.seq(A, B, C)
    cea = compile_cel(phi)
    stream = stream_of("A", "B", "B", "C")
    eng = CoreEngine(cea, strategy="next")
    batches = _feed(eng, stream)
    # skip-till-next: B at position 1 is consumed, position-2 B is skipped
    assert set(batches[3]) == {(0, 3, (0, 1, 3))}


def test_max_strategy_keeps_maximal_iterations():
    phi = cel.seq(A, cel.Plus(B), C)
    cea = compile_cel(phi)
    stream = stream_of("A", "B", "B", "C")
    eng = CoreEngine(cea, strategy="max")
    batches = _feed(eng, stream)
    # ALL yields {1},{2},{1,2} for the B-block; MAX keeps only {1,2}
    assert set(batches[3]) == {(0, 3, (0, 1, 2, 3))}


def test_last_strategy_one_match_per_start():
    phi = cel.seq(A, B, C)
    cea = compile_cel(phi)
    stream = stream_of("A", "B", "B", "C")
    eng = CoreEngine(cea, strategy="last")
    batches = _feed(eng, stream)
    assert set(batches[3]) == {(0, 3, (0, 2, 3))}  # latest B


@pytest.mark.parametrize("strategy", ["LAST", "Next", "any", ""])
def test_unknown_strategy_rejected(strategy):
    # Anything outside all/next/last/max used to run as plain ALL.
    with pytest.raises(ValueError):
        CoreEngine(SEQ3, strategy=strategy)


def test_brute_force_agreement_sanity():
    phi = cel.seq(A, cel.Plus(B), C)
    stream = stream_of("A", "B", "X", "B", "C")
    expected = brute.complex_events(phi, stream, window=None)
    eng = CoreEngine(compile_cel(phi))
    got = set()
    for i, t in enumerate(stream):
        got |= set(eng.process(t, pos=i))
    assert got == expected
