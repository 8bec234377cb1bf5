"""Structural tests for the CEL -> CEA compiler (paper Section 4, app. A.1)."""
import pytest

from repro.cea import cel
from repro.cea.automaton import compile_cel
from repro.cea.determinize import DetCEA


def _atomic(name="A"):
    return cel.EventType(name)


def test_atomic_automaton_shape():
    cea = compile_cel(_atomic())
    assert cea.q0 == 0
    assert len(cea.finals) == 1
    # q0 --type==A/mark--> final
    assert all(mark for (_, _, mark, _) in cea.transitions)


def test_initial_state_has_no_incoming_transitions():
    # Required by Algorithm 1 to define complex-event start times.
    for phi in [
        _atomic(),
        cel.Seq(_atomic("A"), _atomic("B")),
        cel.Plus(_atomic("A")),
        cel.Or(_atomic("A"), cel.Plus(_atomic("B"))),
    ]:
        cea = compile_cel(phi)
        assert all(dst != cea.q0 for (_, _, _, dst) in cea.transitions)


def test_size_linear_in_formula():
    # Theorem 1: CEA size linear in |phi|.
    sizes = []
    for n in (2, 4, 8, 16):
        phi = cel.seq(*(_atomic(f"A{i}") for i in range(n)))
        cea = compile_cel(phi)
        sizes.append((n, cea.n_states, len(cea.transitions)))
    for (n1, s1, t1), (n2, s2, t2) in zip(sizes, sizes[1:]):
        assert s2 <= s1 * (n2 / n1) + 2
        assert t2 <= t1 * (n2 / n1) + 4


def test_seq_junction_has_skip_loop():
    cea = compile_cel(cel.Seq(_atomic("A"), _atomic("B")))
    # Non-contiguous sequencing: some state has a TRUE self-loop.
    assert any(
        src == dst and not g and not mark for (src, g, mark, dst) in cea.transitions
    )


def test_trim_removes_dead_states():
    # In A;B the appendix construction retains A's final state as a dead
    # end; trimming must remove it: every state reaches a final.
    cea = compile_cel(cel.seq(_atomic("A"), _atomic("B"), _atomic("C")))
    fwd = {}
    for (p, _, _, q) in cea.transitions:
        fwd.setdefault(p, set()).add(q)
    reach_final = set(cea.finals)
    changed = True
    while changed:
        changed = False
        for p, qs in fwd.items():
            if p not in reach_final and qs & reach_final:
                reach_final.add(p)
                changed = True
    states = {p for (p, _, _, _) in cea.transitions} | {
        q for (_, _, _, q) in cea.transitions
    }
    assert states <= reach_final


def test_filter_conjoins_guard_on_marking_transitions():
    from repro.cea.predicates import Atom

    phi = cel.Filter(_atomic("A"), "A", frozenset({Atom("v", ">", 1)}))
    cea = compile_cel(phi)
    marking = [g for (_, g, mark, _) in cea.transitions if mark]
    assert all(Atom("v", ">", 1) in g for g in marking)


def test_projection_unmarks_transitions():
    phi = cel.Project(cel.Seq(_atomic("A"), _atomic("B")), frozenset({"B"}))
    cea = compile_cel(phi)
    # The A transition no longer marks; the B transition still does.
    from repro.cea.predicates import type_atom

    for (_, g, mark, _) in cea.transitions:
        if type_atom("A") in g:
            assert not mark
        if type_atom("B") in g:
            assert mark


def test_transitions_are_deduplicated():
    phi = cel.Plus(cel.Or(_atomic("A"), _atomic("A")))
    cea = compile_cel(phi)
    assert len(cea.transitions) == len(set(cea.transitions))


def test_compile_rejects_non_formula():
    with pytest.raises(TypeError):
        compile_cel("not a formula")  # type: ignore[arg-type]


def test_cea_pickle_roundtrip():
    import pickle

    cea = compile_cel(cel.Plus(cel.Seq(_atomic("A"), _atomic("B"))))
    cea2 = pickle.loads(pickle.dumps(cea))
    assert cea2.n_states == cea.n_states
    assert cea2.transitions == cea.transitions
    assert cea2.adj.keys() == cea.adj.keys()
    assert len(cea2.index) == len(cea.index)


def test_detcea_interns_states_and_caches():
    cea = compile_cel(cel.seq(_atomic("A"), _atomic("B")))
    det = DetCEA(cea)
    bv_a = cea.index.bitvector({"type": "A"})
    r1 = det.step(det.q0, bv_a)
    r2 = det.step(det.q0, bv_a)
    assert r1 == r2
    assert det.n_det_states >= 2


def test_detcea_io_determinism():
    # From any reached det state and bitvector: at most one marking and one
    # non-marking successor (that is the I/O-determinism invariant).
    cea = compile_cel(cel.Plus(cel.Or(_atomic("A"), _atomic("B"))))
    det = DetCEA(cea)
    bvs = [cea.index.bitvector({"type": t}) for t in ("A", "B", "C")]
    frontier = [det.q0]
    seen = set(frontier)
    while frontier:
        s = frontier.pop()
        for bv in bvs:
            qm, qu = det.step(s, bv)
            for q in (qm, qu):
                if q is not None and q not in seen:
                    seen.add(q)
                    frontier.append(q)
    assert len(seen) < 64  # lazily built, small in practice


def test_detcea_next_strategy_suppresses_unmark_branch():
    cea = compile_cel(cel.Seq(_atomic("A"), _atomic("B")))
    det_all = DetCEA(cea, strategy="all")
    det_next = DetCEA(cea, strategy="next")
    bv_a = cea.index.bitvector({"type": "A"})
    qm, _ = det_all.step(det_all.q0, bv_a)
    # state after A; reading B branches under ALL, not under NEXT
    bv_b = cea.index.bitvector({"type": "B"})
    m_all, u_all = det_all.step(qm, bv_b)
    qm2, _ = det_next.step(det_next.q0, bv_a)
    m_next, u_next = det_next.step(qm2, bv_b)
    assert m_all is not None and u_all is not None
    assert m_next is not None and u_next is None


def test_detcea_rejects_unknown_strategy():
    cea = compile_cel(_atomic())
    # LAST/MAX are engine-side filters over the ALL automaton.
    for strategy in ("bogus", "last", "max"):
        with pytest.raises(ValueError):
            DetCEA(cea, strategy=strategy)
