import random

import pytest
from hypothesis import given, strategies as st

from polybound.ir import TRUE, Program, Transition, entry_transitions, sccs
from polybound.sim import exhaustive_run

from conftest import FIXTURE_NAMES, load_fixture


def cyclic_components(units):
    """Internal transitions of the SCCs that hold a cycle, in topological order."""
    return [internal for _, internal in units if internal]


def cyclic_ids(units) -> set[str]:
    return {t.tid for comp in cyclic_components(units) for t in comp}


def test_nested_single_scc(nested):
    units = sccs(nested)
    assert [[t.tid for t in comp] for comp in cyclic_components(units)] == [["t1", "t2", "t3"]]
    assert cyclic_ids(units) == {"t1", "t2", "t3"}


def test_straight_line_has_no_sccs():
    p = load_fixture("straight_line")
    units = sccs(p)
    assert cyclic_components(units) == []
    assert cyclic_ids(units) == set()


def test_two_independent_loops_in_topological_order():
    p = load_fixture("two_loops")
    units = sccs(p)
    # derived by hand: the l1 component must precede the l2 component
    assert [[t.tid for t in comp] for comp in cyclic_components(units)] == [["t1"], ["t3"]]
    assert "t2" not in cyclic_ids(units)


def test_entry_transitions_nested(nested):
    rest = [t for t in nested.transitions if t.tid != "t0"]
    assert [t.tid for t in entry_transitions(nested, rest)] == ["t0"]
    assert [t.tid for t in entry_transitions(nested, [nested.transition("t3")])] == ["t1"]


def test_entry_transitions_whole_program_empty(nested):
    assert entry_transitions(nested, list(nested.transitions)) == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_entry_transition_contract(name):
    p = load_fixture(name)
    for comp in cyclic_components(sccs(p)):
        members = {t.tid for t in comp}
        sources = {t.src for t in comp}
        entries = entry_transitions(p, comp)
        for r in entries:
            assert r.tid not in members
            assert r.tgt in sources


def test_units_cover_every_transition_once(nested):
    seen = []
    for feeding, internal in sccs(nested):
        seen.extend(t.tid for t in feeding)
        seen.extend(t.tid for t in internal)
    assert sorted(seen) == sorted(t.tid for t in nested.transitions)


@pytest.mark.parametrize("name", ["nested", "countdown", "two_loops", "straight_line"])
def test_non_cyclic_transitions_fire_at_most_once(name):
    p = load_fixture(name)
    cyclic = cyclic_ids(sccs(p))
    rng = random.Random(11)
    for _ in range(15):
        state = {v: rng.randint(-6, 6) for v in p.vars}
        result = exhaustive_run(p, state, max_steps=300)
        if result.exceeded:
            continue
        for t in p.transitions:
            if t.tid not in cyclic:
                assert result.per_transition[t.tid] <= 1


@st.composite
def location_graphs(draw) -> Program:
    """Up to ten locations and twenty transitions, none into the start ``l0``."""
    n = draw(st.integers(2, 10))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=20))
    transitions = tuple(
        Transition(f"t{i}", f"l{src}", TRUE, {}, f"l{tgt}") for i, (src, tgt) in enumerate(edges)
    )
    return Program((), frozenset(f"l{i}" for i in range(n)), "l0", transitions)


def reachable(p: Program) -> dict[str, set[str]]:
    reach = {loc: {loc} for loc in p.locs}
    changed = True
    while changed:
        changed = False
        for t in p.transitions:
            for loc in p.locs:
                if t.src in reach[loc] and t.tgt not in reach[loc]:
                    reach[loc].add(t.tgt)
                    changed = True
    return reach


@given(location_graphs())
def test_units_are_the_sccs_in_topological_order(p):
    units = sccs(p)
    reach = reachable(p)
    placed = [t.tid for feeding, internal in units for t in (*feeding, *internal)]
    assert sorted(placed) == sorted(t.tid for t in p.transitions)
    assert len(units) == len({frozenset(l for l in reach[loc] if loc in reach[l]) for loc in p.locs})
    unit_of: dict[str, int] = {}
    for k, (feeding, internal) in enumerate(units):
        for t in feeding:
            assert t.src not in reach[t.tgt]
            assert unit_of.setdefault(t.tgt, k) == k
        for t in internal:
            assert t.src in reach[t.tgt]
            assert unit_of.setdefault(t.src, k) == unit_of.setdefault(t.tgt, k) == k
        if internal:
            assert [t.tid for t in feeding] == [t.tid for t in entry_transitions(p, internal)]
    for t in p.transitions:
        if t.src in unit_of:
            assert unit_of[t.src] <= unit_of[t.tgt]
