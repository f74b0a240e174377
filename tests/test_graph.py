import random

import pytest

from polybound.ir import entry_transitions, sccs
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
