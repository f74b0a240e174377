import random

import pytest

from polybound.ir import Atom, Polynomial, TRUE, Transition, eval_formula, normalize_atom
from polybound.polyexp import PolyExp, pe_eval
from polybound.twn import (
    CyclicDependency,
    NonLinearSelfOccurrence,
    NotSelfLoop,
    closed_form,
    compose,
    twn_check,
)

from conftest import iterate_update, random_twn_transition

x, x1, x2, x3 = (Polynomial.var(v) for v in ("x", "x1", "x2", "x3"))


def self_loop(update, guard=TRUE) -> Transition:
    return Transition("loop", "l1", guard, update, "l1")


def test_triangular_loop_accepted():
    t = self_loop({"x1": x1 + x2**2, "x2": x2 + 1})
    loop = twn_check(t)
    assert loop.order == ("x1", "x2")
    assert loop.coeffs == {"x1": 1, "x2": 1}
    assert loop.path == (t,)


def test_cyclic_dependencies_rejected():
    t = self_loop({"x1": x1 + x2**2, "x2": x1 + 1})
    with pytest.raises(CyclicDependency):
        twn_check(t)


def test_nonlinear_self_occurrence_rejected():
    t = self_loop({"x1": x1 * x2, "x2": x2 + 1})
    with pytest.raises(NonLinearSelfOccurrence):
        twn_check(t)


def test_non_self_loop_rejected():
    t = Transition("t", "l1", TRUE, {"x": x}, "l2")
    with pytest.raises(NotSelfLoop):
        twn_check(t)


def test_compose_single_step_is_the_transition():
    t = self_loop({"x": -x, "y": x + 1}, guard=normalize_atom(x, "!=", Polynomial.zero()))
    assert compose((t,)) == (t.guard, t.update)


def test_chain_sign_flip():
    t = self_loop({"x": -x}, guard=normalize_atom(x, "!=", Polynomial.zero()))
    guard2, update2 = compose((t, t))
    assert update2 == {"x": x}
    for v in (-3, -1, 1, 4):
        assert eval_formula(guard2, {"x": v})
    assert not eval_formula(guard2, {"x": 0})


def test_chain_decrement():
    guard2, update2 = compose((self_loop({"x": x - 1}, guard=Atom(x)),) * 2)
    assert update2 == {"x": x - 2}
    assert eval_formula(guard2, {"x": 2})  # x>0 and x-1>0
    assert not eval_formula(guard2, {"x": 1})


def test_compose_takes_each_guard_after_the_steps_before_it():
    y = Polynomial.var("y")
    first = Transition("t1", "l1", Atom(x), {"x": x - 1, "y": y + x}, "l2")
    second = Transition("t2", "l2", Atom(y - 5), {"x": x, "y": 2 * y}, "l1")
    guard, update = compose((first, second))
    assert update == {"x": x - 1, "y": 2 * y + 2 * x}
    # y + x > 5 after the first step
    assert eval_formula(guard, {"x": 3, "y": 3})
    assert not eval_formula(guard, {"x": 3, "y": 2})
    assert not eval_formula(guard, {"x": 0, "y": 9})


def test_chain_equals_two_steps_on_random_states():
    rng = random.Random(12)
    for _ in range(40):
        t = random_twn_transition(rng, max_vars=3, max_degree=2, max_coeff=4)
        guard2, update2 = compose((t, t))
        state = {v: rng.randint(-5, 5) for v in t.update}
        two_steps = iterate_update(t.update, state, 2)
        one_chained = iterate_update(update2, state, 1)
        assert two_steps == one_chained


def test_negative_coefficient_triggers_chaining():
    t = self_loop({"x": -2 * x}, guard=Atom(x))
    loop = twn_check(t)
    assert loop.path == (t, t)
    assert loop.update == {"x": 4 * x}
    assert loop.coeffs == {"x": 4}
    # doubled guard: x > 0 and -2x > 0, unsatisfiable over the integers
    assert not any(eval_formula(loop.guard, {"x": v}) for v in range(-10, 11))


def test_closed_form_reference_loop(geo_race):
    loop = twn_check(geo_race.transition("t1"))
    cf = closed_form(loop)
    assert cf.start == 0
    assert cf["x1"] == PolyExp(((x1, 0, 4),))
    assert cf["x2"] == PolyExp(((x3**3, 0, 1), (x2 - x3**3, 0, 9)))
    assert cf["x3"] == PolyExp(((x3, 0, 1),))


def test_closed_form_identity():
    loop = twn_check(self_loop({"x": x}))
    cf = closed_form(loop)
    assert cf.start == 0
    assert cf["x"] == PolyExp(((x, 0, 1),))


def test_closed_form_sum_loop():
    # x1 <- x1 + x2, x2 <- x2 + 1: quadratic growth in the leading variable
    loop = twn_check(self_loop({"x1": x1 + x2, "x2": x2 + 1}))
    cf = closed_form(loop)
    assert cf.start == 0
    rng = random.Random(1)
    for _ in range(20):
        state = {"x1": rng.randint(-9, 9), "x2": rng.randint(-9, 9)}
        for n in range(0, 26):
            iterated = iterate_update(loop.update, state, n)
            for v in ("x1", "x2"):
                assert pe_eval(cf[v], state, n) == iterated[v]
    # symbolic shape: x1 + n*x2 + n(n-1)/2
    expected_at = lambda s, n: s["x1"] + n * s["x2"] + n * (n - 1) // 2
    state = {"x1": 3, "x2": -2}
    for n in range(0, 26):
        assert pe_eval(cf["x1"], state, n) == expected_at(state, n)


def test_closed_form_constant_reset_has_start_one():
    # x <- 5 has a zero self-coefficient: the closed form starts at n = 1
    loop = twn_check(self_loop({"x": Polynomial.const(5)}))
    cf = closed_form(loop)
    assert cf.start == 1
    state = {"x": -7}
    for n in range(1, 10):
        assert pe_eval(cf["x"], state, n) == 5


def test_closed_form_zero_coefficient_chain():
    # x1 <- x2, x2 <- 3: two stacked zero-coefficient stages
    loop = twn_check(self_loop({"x1": x2, "x2": Polynomial.const(3)}))
    cf = closed_form(loop)
    assert cf.start == 2
    state = {"x1": 11, "x2": -4}
    for n in range(cf.start, 12):
        iterated = iterate_update(loop.update, state, n)
        for v in ("x1", "x2"):
            assert pe_eval(cf[v], state, n) == iterated[v]


def test_closed_form_mixing_zero_and_positive_coefficients():
    # x1 <- 2*x1 + x2 consumes a dependency that is only valid from n = 1 on
    loop = twn_check(self_loop({"x1": 2 * x1 + x2, "x2": Polynomial.const(4)}))
    cf = closed_form(loop)
    rng = random.Random(8)
    for _ in range(10):
        state = {"x1": rng.randint(-6, 6), "x2": rng.randint(-6, 6)}
        for n in range(cf.start, 20):
            iterated = iterate_update(loop.update, state, n)
            for v in ("x1", "x2"):
                assert pe_eval(cf[v], state, n) == iterated[v]


def test_closed_form_random_loops_nonnegative_coefficients():
    rng = random.Random(42)
    for _ in range(30):
        t = random_twn_transition(rng, allow_negative=False)
        loop = twn_check(t)
        cf = closed_form(loop)
        for _ in range(5):
            state = {v: rng.randint(-5, 5) for v in t.update}
            for n in range(cf.start, 26):
                iterated = iterate_update(loop.update, state, n)
                for v in t.update:
                    assert pe_eval(cf[v], state, n) == iterated[v]


def test_order_is_topological():
    rng = random.Random(13)
    for _ in range(40):
        t = random_twn_transition(rng, allow_negative=False)
        loop = twn_check(t)
        position = {v: i for i, v in enumerate(loop.order)}
        for v in loop.order:
            rest = loop.update[v] - Polynomial.var(v).scale(loop.coeffs[v])
            for w in rest.variables():
                assert position[w] > position[v]
