import random

import pytest

from polybound import twnbounds
from polybound.bounds import AsymptoticClass, asymptotic_class, bound_eval
from polybound.ir import (
    Atom,
    FALSE,
    Polynomial,
    TRUE,
    Transition,
    eval_formula,
    parse_program,
)
from polybound.polyexp import PolyExp, pe_eval, pe_substitute
from polybound.smt import SmtContext
from polybound.twn import closed_form, compose, twn_check
from polybound.twnbounds import (
    CapExceeded,
    TwnAnalysis,
    Unsupported,
    analyze_self_loop,
    dominance_threshold,
    eventual_atom,
    nontermination_formula,
    prove_termination,
    stabilization_bound,
    twn_size_bound,
)

x, y = Polynomial.var("x"), Polynomial.var("y")
x1, x2, x3 = (Polynomial.var(v) for v in ("x1", "x2", "x3"))


def self_loop(update, guard=TRUE) -> Transition:
    return Transition("loop", "l1", guard, update, "l1")


def run_loop(loop, state, cap) -> int:
    """Iterations until the guard goes false; the test's ground truth."""
    current = dict(state)
    steps = 0
    while eval_formula(loop.guard, current):
        current = {v: rhs.evaluate_int(current) for v, rhs in loop.update.items()}
        steps += 1
        if steps > cap:
            pytest.fail(f"loop ran past {cap} iterations from {state}")
    return steps


# -- eventual_atom ------------------------------------------------------------


def test_eventual_atom_dominant_coefficient():
    pe = PolyExp(((Polynomial.const(-5), 0, 1), (x, 0, 2)))  # x*2^n - 5
    f = eventual_atom(pe)
    for v in range(-6, 7):
        # at n = 60 the dominant addend has decided the sign
        expected = pe_eval(pe, {"x": v}, 60) > 0
        assert eval_formula(f, {"x": v}) == expected


def test_eventual_atom_constant():
    assert eval_formula(eventual_atom(PolyExp(((Polynomial.const(3), 0, 1),))), {})
    assert eventual_atom(PolyExp(())) == FALSE


def test_eventual_atom_three_addends(geo_race):
    loop = twn_check(geo_race.transition("t1"))
    cf = closed_form(loop)
    pe = pe_substitute(x2 - x1**2 - x3**5, cf.values)
    f = eventual_atom(pe)
    rng = random.Random(17)
    for _ in range(150):
        state = {v: rng.randint(-4, 4) for v in ("x1", "x2", "x3")}
        expected = pe_eval(pe, state, 60) > 0
        assert eval_formula(f, state) == expected


def test_eventual_atom_random_expressions():
    # the eventual truth value must equal the actual sign once the per-atom
    # stabilization bound is passed
    from polybound.twnbounds import atom_stabilization_bound

    rng = random.Random(23)
    for _ in range(80):
        addends = []
        used = set()
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(0, 2), rng.randint(1, 3))
            if key in used:
                continue
            used.add(key)
            q = x.scale(rng.randint(-3, 3)) + y.scale(rng.randint(-3, 3)) + rng.randint(-3, 3)
            if not q.is_zero:
                addends.append((q, key[0], key[1]))
        addends.sort(key=lambda t: (t[2], t[1]))
        pe = PolyExp(tuple(addends))
        f = eventual_atom(pe)
        threshold = atom_stabilization_bound(pe)
        state = {"x": rng.randint(-5, 5), "y": rng.randint(-5, 5)}
        n = bound_eval(threshold, {v: abs(s) for v, s in state.items()}) + 5
        expected = pe_eval(pe, state, n) > 0
        assert eval_formula(f, state) == expected


# -- termination --------------------------------------------------------------


def test_reference_loop_terminates(geo_race, smt):
    analysis = analyze_self_loop(geo_race.transition("t1"), smt)
    assert isinstance(analysis, TwnAnalysis)
    assert analysis.verdict.status == "terminating"


def test_incrementing_loop_diverges_with_witness(smt):
    loop = twn_check(self_loop({"x": x + 1}, guard=Atom(x)))
    cf = closed_form(loop)
    verdict = prove_termination(loop, cf, smt)
    assert verdict.status == "nonterminating"
    state = dict(verdict.witness)
    for _ in range(100):
        assert eval_formula(loop.guard, state)
        state = {v: rhs.evaluate_int(state) for v, rhs in loop.update.items()}


def test_decrementing_loop_terminates(smt):
    loop = twn_check(self_loop({"x": x - 1}, guard=Atom(x)))
    verdict = prove_termination(loop, closed_form(loop), smt)
    assert verdict.status == "terminating"


def test_false_guard_is_trivially_terminating(smt):
    loop = twn_check(self_loop({"x": x + 1}, guard=FALSE))
    assert nontermination_formula(loop, closed_form(loop)) == FALSE
    verdict = prove_termination(loop, closed_form(loop), smt)
    assert verdict.status == "terminating"


def test_solver_timeout_yields_unknown():
    loop = twn_check(self_loop({"x": 2 * x, "y": y}, guard=Atom(y - x**2)))
    cf = closed_form(loop)
    verdict = prove_termination(loop, cf, SmtContext(timeout_ms=1))
    assert verdict.status == "unknown"


# -- dominance thresholds -----------------------------------------------------


def brute_force_threshold(lower, upper, horizon=200):
    a1, b1 = lower
    a2, b2 = upper

    def holds(n):
        return n ** (a1 + 1) * b1**n <= n**a2 * b2**n

    last_failure = 0
    for n in range(1, horizon):
        if not holds(n):
            last_failure = n
    assert all(holds(n) for n in range(last_failure + 1, horizon))
    return last_failure + 1


def test_dominance_threshold_examples():
    assert dominance_threshold((0, 1), (0, 9)) == 1
    assert dominance_threshold((0, 9), (0, 16)) == 1
    d = dominance_threshold((5, 2), (0, 3))
    assert d == brute_force_threshold((5, 2), (0, 3))


@pytest.mark.parametrize(
    "lower,upper",
    [((0, 1), (1, 1)), ((2, 2), (0, 4)), ((1, 2), (0, 3)), ((3, 1), (0, 2)),
     ((0, 2), (4, 2)), ((2, 3), (1, 5))],
)
def test_dominance_threshold_against_brute_force(lower, upper):
    assert dominance_threshold(lower, upper) == brute_force_threshold(lower, upper)


def test_dominance_threshold_matches_brute_force_on_grid():
    addends = [(a, b) for b in range(1, 7) for a in range(4)]  # ascending order
    for i, lower in enumerate(addends):
        for upper in addends[i + 1:]:
            expected = brute_force_threshold(lower, upper, horizon=400)
            assert dominance_threshold(lower, upper) == expected, (lower, upper)


def test_dominance_threshold_far_past_the_turning_point():
    # the ratio of n^2 * 1000^n to 1001^n turns only near n = 2000 and drops
    # below 1 near n = 20000; a linear scan over such powers takes minutes
    d = dominance_threshold((1, 1000), (0, 1001))
    assert d ** 2 * 1000**d <= 1001**d
    assert (d - 1) ** 2 * 1000 ** (d - 1) > 1001 ** (d - 1)


def test_dominance_threshold_cap_is_exact(monkeypatch):
    d = dominance_threshold((3, 5), (0, 6))
    monkeypatch.setattr(twnbounds, "SEARCH_CAP", d)
    assert dominance_threshold((3, 5), (0, 6)) == d
    monkeypatch.setattr(twnbounds, "SEARCH_CAP", d - 1)
    with pytest.raises(CapExceeded):
        dominance_threshold((3, 5), (0, 6))


def test_dominance_threshold_requires_order():
    with pytest.raises(ValueError):
        dominance_threshold((0, 9), (0, 1))


# -- stabilization bounds -----------------------------------------------------


def test_stabilization_bound_is_polynomial(geo_race, smt):
    analysis = analyze_self_loop(geo_race.transition("t1"), smt)
    klass = asymptotic_class(analysis.local_bound)
    assert klass.kind == "poly"
    assert klass == AsymptoticClass("poly", 5)  # x3^5 dominates


def test_trivial_guard_constant_bound():
    loop = twn_check(self_loop({"x": x + 1}, guard=TRUE))
    bound = stabilization_bound(loop, closed_form(loop))
    assert bound_eval(bound, {"x": 10**6}) == bound_eval(bound, {"x": 0})


def test_countdown_bound_dominates_simulation(smt):
    t = self_loop({"x": x - 1}, guard=Atom(x))
    analysis = analyze_self_loop(t, smt)
    assert analysis.verdict.is_terminating
    for start in range(0, 51):
        actual = max(0, start)
        bound = bound_eval(analysis.local_bound, {"x": abs(start)})
        assert actual <= bound


def test_reference_loop_bound_dominates_simulation(geo_race, smt):
    t = geo_race.transition("t1")
    analysis = analyze_self_loop(t, smt)
    rng = random.Random(3)
    for _ in range(60):
        state = {v: rng.randint(-15, 15) for v in ("x1", "x2", "x3")}
        steps = run_loop(t, state, 10**6)
        bound = bound_eval(analysis.local_bound, {v: abs(s) for v, s in state.items()})
        assert steps <= bound


# -- local runtime bounds -----------------------------------------------------


def test_non_self_loop_unsupported(nested, smt):
    outcome = analyze_self_loop(nested.transition("t1"), smt)
    assert isinstance(outcome, Unsupported)


def test_diverging_loop_unsupported(smt):
    outcome = analyze_self_loop(self_loop({"x": x + 1}, guard=Atom(x)), smt)
    assert outcome.verdict.status == "nonterminating"
    assert outcome.local_bound is None


def test_chained_loop_local_bound(smt):
    t = self_loop({"x": -2 * x}, guard=Atom(x))
    analysis = analyze_self_loop(t, smt)
    assert isinstance(analysis, TwnAnalysis)
    assert len(analysis.loop.path) == 2
    # the loop runs exactly one step from any positive start
    for start in (1, 2, 9, 50):
        current = {"x": start}
        steps = 0
        while eval_formula(t.guard, current):
            current = {"x": t.update["x"].evaluate_int(current)}
            steps += 1
        assert steps == 1
        assert steps <= bound_eval(analysis.local_bound, {"x": start})


# A loop t with a negative self-coefficient, and t;t written by hand as its own
# loop: guard g && g[x/eta(x)], update eta . eta.
DOUBLE_STEPS = {
    "flip": (
        ["x", "y"], "-3*x, y", "x > 0 && y > 0",
        "9*x, y", "x > 0 && y > 0 && -3*x > 0 && y > 0",
    ),
    "count": (
        ["x", "y"], "-x, y-2", "y > 0",
        "x, y-4", "y > 0 && y-2 > 0",
    ),
    "mixed": (
        ["x", "y", "z"], "-2*x+z, y-1, z", "y > 0 && x > z",
        "4*x-z, y-2, z", "y > 0 && x > z && y-1 > 0 && -2*x+z > z",
    ),
}


def loop_transition(variables, update: str, guard: str) -> Transition:
    args = ",".join(variables)
    program = parse_program(
        f"(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR {' '.join(variables)})"
        f"(RULES l0({args}) -> l1({args})  l1({args}) -> l1({update}) :|: {guard})"
    )
    return program.transition("t1")


@pytest.mark.parametrize("name", sorted(DOUBLE_STEPS))
def test_chained_loop_counts_two_steps_per_double_step(name, smt):
    variables, update, guard, update2, guard2 = DOUBLE_STEPS[name]
    single = analyze_self_loop(loop_transition(variables, update, guard), smt)
    double = analyze_self_loop(loop_transition(variables, update2, guard2), smt)
    assert isinstance(single, TwnAnalysis) and isinstance(double, TwnAnalysis)
    k = len(single.loop.path)
    assert k == 2 and len(double.loop.path) == 1
    assert single.local_bound is not None and double.iteration_bound is not None
    # every double-step is two steps of t, and a last single step may follow
    rng = random.Random(name)
    for _ in range(40):
        size = {v: abs(rng.randint(-9, 9)) for v in variables}
        double_steps = bound_eval(double.iteration_bound, size)
        assert bound_eval(single.local_bound, size) >= k * double_steps + k - 1, size


@pytest.mark.parametrize("name", sorted(DOUBLE_STEPS))
def test_compose_twice_is_the_double_step(name):
    variables, update, guard, update2, guard2 = DOUBLE_STEPS[name]
    t = loop_transition(variables, update, guard)
    double = loop_transition(variables, update2, guard2)
    assert compose((t, t)) == (double.guard, double.update)


# -- size bounds from closed forms ---------------------------------------------


def test_size_bound_identity_variable(geo_race, smt):
    analysis = analyze_self_loop(geo_race.transition("t1"), smt)
    bound = twn_size_bound(analysis, "x3")
    for v in range(0, 20):
        assert bound_eval(bound, {"x1": 3, "x2": 5, "x3": v}) == v


def test_size_bound_geometric_variable(geo_race, smt):
    analysis = analyze_self_loop(geo_race.transition("t1"), smt)
    bound = twn_size_bound(analysis, "x1")
    state = {"x1": 2, "x2": 9, "x3": 1}
    abs_state = dict(state)
    iteration_cap = bound_eval(analysis.iteration_bound, abs_state)
    # closed form says x1 grows by factor 4 each step
    assert bound_eval(bound, abs_state) >= 2 * 4**iteration_cap


def test_size_bound_additive_variable(smt):
    t = self_loop({"x": x - 1, "y": y}, guard=Atom(x))
    analysis = analyze_self_loop(t, smt)
    bound = twn_size_bound(analysis, "x")
    rng = random.Random(5)
    for _ in range(40):
        state = {"x": rng.randint(-10, 10), "y": rng.randint(-10, 10)}
        abs_state = {v: abs(s) for v, s in state.items()}
        current = dict(state)
        observed = abs(current["x"])
        steps = 0
        while eval_formula(t.guard, current) and steps < 100:
            current = {v: rhs.evaluate_int(current) for v, rhs in t.update.items()}
            observed = max(observed, abs(current["x"]))
            steps += 1
        assert observed <= bound_eval(bound, abs_state)
