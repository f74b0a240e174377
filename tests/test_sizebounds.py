import random

import pytest

from polybound.bounds import Const, INFINITE, bound_eval, bound_of_poly, is_omega
from polybound.engine import analyze
from polybound.ir import parse_program, sccs
from polybound.sizebounds import size_bounds_for_scc

from conftest import FIXTURE_NAMES, explore_sizes, load_fixture


def test_local_size_bound_examples(nested):
    t1 = nested.transition("t1")
    b = bound_of_poly(t1.update["x2"])  # update x2 <- x5
    assert bound_eval(b, {v: 9 for v in nested.vars}) == 9
    t2 = nested.transition("t2")
    b = bound_of_poly(t2.update["x4"])  # update x4 <- x4 - 1
    assert bound_eval(b, {v: 9 for v in nested.vars}) == 10
    b = bound_of_poly(t1.update["x3"])  # identity
    assert bound_eval(b, {v: 4 for v in nested.vars}) == 4


def test_nested_initial_and_invariant_bounds(nested):
    result = analyze(nested)
    sb = result.sb
    assert bound_eval(sb[("t0", "x4")], {v: 5 for v in nested.vars}) == 5
    # x5 passes through the component untouched
    assert bound_eval(sb[("t1", "x5")], {v: 5 for v in nested.vars}) == 5
    # x2 right after t1 copies x5 (sum over the two paths into l1)
    assert not is_omega(sb[("t1", "x2")])
    # x1 after t3 has no finite rule in the fragment
    assert is_omega(sb[("t3", "x1")])


def test_squaring_loop_falls_through_to_omega():
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x)  l1(x) -> l1(x*x) :|: x > 1)"
    )
    result = analyze(p)
    assert is_omega(result.sb[("t1", "x")])


def test_additive_rule_uses_runtime_bound():
    p = load_fixture("additive")
    result = analyze(p)
    # z gains 2 per iteration, so its size bound scales with the loop count
    state = {"x": 10, "z": 3}
    bound = bound_eval(result.sb[("t1", "z")], state)
    assert bound != INFINITE
    assert bound >= 3 + 2 * 10


def test_acyclic_chain_composes():
    p = load_fixture("straight_line")  # l0 -> l1 -> l2 with x <- x + 3
    result = analyze(p)
    assert bound_eval(result.sb[("t1", "x")], {"x": 4}) == 7


def test_rule_order_is_deterministic(nested):
    a = analyze(nested).sb
    b = analyze(nested).sb
    assert a == b


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_size_bounds_dominate_observed_values(name):
    p = load_fixture(name)
    result = analyze(p)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(12):
        state = {v: rng.randint(-8, 8) for v in p.vars}
        abs_state = {v: abs(s) for v, s in state.items()}
        observed = explore_sizes(p, state, max_steps=120, cap=4000)
        for (tid, v), value in observed.items():
            bound = bound_eval(result.sb[(tid, v)], abs_state)
            assert value <= bound, (name, tid, v, state, value, bound)


def test_monotone_refinement_under_smaller_runtime_bounds():
    p = load_fixture("additive")
    scc = next(internal for _, internal in sccs(p) if internal)
    sb_template = {}
    for t in [p.transition("t0")]:
        size_bounds_for_scc(p, [t], {}, sb_template)

    loose = dict(sb_template)
    tight = dict(sb_template)
    size_bounds_for_scc(p, scc, {"t1": Const(50)}, loose)
    size_bounds_for_scc(p, scc, {"t1": Const(5)}, tight)
    state = {"x": 9, "z": 2}
    for key, bound in tight.items():
        assert bound_eval(bound, state) <= bound_eval(loose[key], state)
