"""Acceptance suite: one test per criterion, exact tolerances, wall budgets.

Every expected number here is either arithmetically forced (exact rational
identities, zero tolerance) or an explicitly stated time budget.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from polybound.bounds import (
    AsymptoticClass,
    Const,
    asymptotic_class,
    bound_eval,
    is_omega,
)
from polybound.cli import main
from polybound.engine import AnalysisConfig, analyze
from polybound.ir import Atom, Polynomial, Transition, eval_formula, mk_and
from polybound.polyexp import PolyExp, pe_eval, power_sum
from polybound.sim import exhaustive_run
from polybound.twn import closed_form, twn_check
from polybound.twnbounds import TwnAnalysis, analyze_self_loop, prove_termination

from conftest import (
    FIXTURES,
    FIXTURE_NAMES,
    analyzed_fixture,
    iterate_update,
    load_fixture,
    random_twn_transition,
)

x1, x2, x3 = (Polynomial.var(v) for v in ("x1", "x2", "x3"))


def _report(criterion: str, name: str):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def test_c1_closed_form_exactness(capsys):
    started = time.perf_counter()
    program = load_fixture("geo_race")
    loop = twn_check(program.transition("t1"))
    cf = closed_form(loop)
    assert cf.start == 0
    assert cf["x1"] == PolyExp(((x1, 0, 4),))
    assert cf["x2"] == PolyExp(((x3**3, 0, 1), (x2 - x3**3, 0, 9)))
    assert cf["x3"] == PolyExp(((x3, 0, 1),))

    assert main(["closed-form", str(FIXTURES / "geo_race.its"), "--transition", "t1"]) == 0
    out = capsys.readouterr().out
    assert "x1(n) = x1 * 4^n" in out
    assert "x2(n) = (-x3^3 + x2) * 9^n + x3^3" in out
    assert "x3(n) = x3" in out
    assert "valid from n = 0" in out
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f}s"
    _report("C1", "closed-form exactness")


def test_c2_closed_form_property_suite():
    started = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        t = random_twn_transition(rng, max_vars=4, max_degree=3, max_coeff=9)
        loop = twn_check(t)
        cf = closed_form(loop)
        for _ in range(20):
            state = {v: rng.randint(-5, 5) for v in loop.update}
            current = iterate_update(loop.update, state, cf.start)
            for n in range(cf.start, 26):
                for v in loop.update:
                    assert pe_eval(cf[v], state, n) == current[v], (
                        t.update, v, n, state
                    )
                current = {
                    v: rhs.evaluate_int(current) for v, rhs in loop.update.items()
                }
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"budget 60 s exceeded: {elapsed:.1f}s"
    _report("C2", f"closed-form property suite, 100 loops in {elapsed:.1f}s")


def test_c3_termination_verdicts(smt):
    started = time.perf_counter()
    program = load_fixture("geo_race")
    loop = twn_check(program.transition("t1"))
    verdict = prove_termination(loop, closed_form(loop), smt)
    assert verdict.status == "terminating"
    assert time.perf_counter() - started < 10.0

    x = Polynomial.var("x")
    up = twn_check(Transition("up", "l1", Atom(x), {"x": x + 1}, "l1"))
    verdict = prove_termination(up, closed_form(up), smt)
    assert verdict.status == "nonterminating"
    state = dict(verdict.witness)
    for _ in range(100):
        assert eval_formula(up.guard, state)
        state = {v: rhs.evaluate_int(state) for v, rhs in up.update.items()}

    down = twn_check(Transition("down", "l1", Atom(x), {"x": x - 1}, "l1"))
    assert prove_termination(down, closed_form(down), smt).status == "terminating"
    _report("C3", "termination verdicts")


def _terminating_loop_samples(rng: random.Random, count: int) -> list[Transition]:
    """Provably terminating twn self-loops of three shapes: linear countdown
    with drift, geometric growth against a window, and an additive race."""
    loops = []
    while len(loops) < count:
        x = Polynomial.var("x")
        y = Polynomial.var("y")
        shape = rng.randint(0, 2)
        if shape == 0:
            k = rng.randint(1, 5)
            d = rng.randint(-2, 2)
            update = {"x": x - k + y.scale(d), "y": y}
            guard = Atom(x - rng.randint(-3, 3))
            if d > 0:  # drift term must not counter the decrement
                guard = mk_and([guard, Atom(-y + 1)])  # y <= 0
            elif d < 0:
                guard = mk_and([guard, Atom(y + 1)])  # y >= 0
        elif shape == 1:
            c = rng.randint(2, 5)
            update = {"x": x.scale(c), "y": y}
            guard = mk_and([Atom(x), Atom(y - x)])
        else:
            a = rng.randint(1, 4)
            b = rng.randint(1, 4)
            update = {"x": x - a, "y": y + b}
            guard = Atom(x - y)
        loops.append(Transition("loop", "l1", guard, update, "l1"))
    return loops


def test_c4_stabilization_bound_soundness(smt):
    rng = random.Random(77)
    program = load_fixture("geo_race")
    samples = [program.transition("t1")]
    samples.extend(_terminating_loop_samples(rng, 20))
    for t in samples:
        analysis = analyze_self_loop(t, smt)
        assert isinstance(analysis, TwnAnalysis), t.update
        assert analysis.verdict.status == "terminating", (t.guard, t.update)
        klass = asymptotic_class(analysis.local_bound)
        assert klass.kind in ("const", "poly"), "bound must be polynomial"
        for _ in range(50):
            state = {v: rng.randint(-15, 15) for v in t.update}
            steps = 0
            current = dict(state)
            bound = bound_eval(
                analysis.local_bound, {v: abs(s) for v, s in state.items()}
            )
            while eval_formula(t.guard, current):
                current = {
                    v: rhs.evaluate_int(current) for v, rhs in t.update.items()
                }
                steps += 1
                assert steps <= bound, (t.guard, t.update, state, steps, bound)
    _report("C4", "stabilization-bound soundness, 21 loops x 50 states")


def test_c5_reference_program_end_to_end():
    started = time.perf_counter()
    program = load_fixture("nested")
    result = analyze(program)
    assert result.rb["t0"] == Const(1)
    assert asymptotic_class(result.rb["t1"]) == AsymptoticClass("poly", 1)
    assert asymptotic_class(result.rb["t2"]) == AsymptoticClass("poly", 1)
    t3 = asymptotic_class(result.rb["t3"])
    assert t3.kind == "poly" and t3.degree <= 6
    assert result.asymptotic.kind == "poly"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget 30 s exceeded: {elapsed:.1f}s"
    _report("C5", f"end-to-end bounds in {elapsed:.1f}s")


def test_c6_global_soundness_oracle():
    started = time.perf_counter()
    assert len(FIXTURE_NAMES) >= 8
    rng = random.Random(123)
    for name in FIXTURE_NAMES:
        program = load_fixture(name)
        result = analyzed_fixture(name)
        for _ in range(50):
            state = {v: rng.randint(-15, 15) for v in program.vars}
            abs_state = {v: abs(s) for v, s in state.items()}
            run = exhaustive_run(program, state, max_steps=3000, visited_cap=200_000)
            if run.exceeded:
                if run.exceeded_reason == "cycle":
                    # a reachable configuration cycle means unbounded runs
                    assert is_omega(result.overall), name
                continue
            for tid, count in run.per_transition.items():
                if not is_omega(result.rb[tid]):
                    assert count <= bound_eval(result.rb[tid], abs_state), (
                        name, tid, state, count
                    )
            if not is_omega(result.overall):
                assert run.rc <= bound_eval(result.overall, abs_state), (name, state)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"budget 5 min exceeded: {elapsed:.1f}s"
    _report("C6", f"global soundness oracle, {len(FIXTURE_NAMES)} fixtures in {elapsed:.1f}s")


def test_c7_ablations(capsys):
    code = main(["analyze", str(FIXTURES / "nested.its"), "--no-twn"])
    out = capsys.readouterr().out
    assert code == 2
    assert "RB(t3) = ω" in out

    program = load_fixture("countdown")
    result = analyze(program, AnalysisConfig(ranking_enabled=False))
    assert not is_omega(result.overall)
    assert result.provenance["t1"] == "twn"
    _report("C7", "technique ablations")


def test_c8_summation_kernels():
    ratios = (Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2),
              Fraction(1, 9), Fraction(4, 3), Fraction(5, 7))
    for a in range(0, 7):
        for rho in ratios:
            coeffs, k_const = power_sum(a, rho)
            for n in range(0, 26):
                direct = sum((Fraction(k) ** a * rho**k for k in range(n)), Fraction(0))
                value = sum((c * Fraction(n) ** d for d, c in enumerate(coeffs)), Fraction(0))
                assert value * rho**n + k_const == direct
    _report("C8", "summation kernels exact")


def test_c9_simulator_trace_fidelity():
    from polybound.sim import make_config, step

    program = load_fixture("nested")
    config = make_config(program, "l0", {"x1": 7, "x2": 5, "x3": 1, "x4": 1, "x5": 3})
    t, config = step(program, config)[0]
    assert t.tid == "t0" and config.loc == "l1"
    assert config.values == (7, 5, 1, 1, 3)
    successors = step(program, config)
    assert len(successors) == 1 and successors[0][0].tid == "t1"
    config = successors[0][1]
    assert (config.loc, config.values) == ("l2", (1, 3, 1, 1, 3))
    for expected in ((4, 19, 1, 1, 3), (16, 163, 1, 1, 3)):
        config = next(c for t, c in step(program, config) if t.tid == "t3")
        assert (config.loc, config.values) == ("l2", expected)
    _report("C9", "step-exact reference trace")
