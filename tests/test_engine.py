import json
import random

from polybound.bounds import (
    AsymptoticClass,
    Const,
    OMEGA,
    Var,
    asymptotic_class,
    bound_eval,
    is_omega,
)
from polybound.cli import report_json
from polybound.engine import AnalysisConfig, analyze, lift_local_bound
from polybound.ir import parse_program

from conftest import load_fixture


def test_nested_bounds(nested):
    result = analyze(nested)
    assert result.rb["t0"] == Const(1)
    assert asymptotic_class(result.rb["t1"]) == AsymptoticClass("poly", 1)
    assert asymptotic_class(result.rb["t2"]) == AsymptoticClass("poly", 1)
    t3 = asymptotic_class(result.rb["t3"])
    assert t3.kind == "poly" and t3.degree <= 6
    overall = result.asymptotic
    assert overall.kind == "poly"
    assert result.provenance["t0"] == "trivial"
    assert result.provenance["t1"] == "ranking"
    assert result.provenance["t2"] == "trivial"
    assert result.provenance["t3"] == "twn"


def test_straight_line_program():
    p = load_fixture("straight_line")
    result = analyze(p)
    assert all(result.rb[t.tid] == Const(1) for t in p.transitions)
    assert result.overall == Const(2)
    assert result.asymptotic == AsymptoticClass("const")


def test_diverging_loop_keeps_omega():
    p = load_fixture("diverge")
    result = analyze(p)
    assert is_omega(result.rb["t1"])
    assert is_omega(result.overall)
    assert result.asymptotic == AsymptoticClass("inf")
    assert result.provenance["t1"] == "none"
    assert result.twn_verdicts["t1"]["status"] == "nonterminating"


def test_lift_with_no_entries_gives_zero(nested):
    bound = lift_local_bound(Var("x1"), [], {}, {})
    assert bound == Const(0)


def test_lift_formula_shape(nested):
    entries = [nested.transition("t0")]
    rb = {"t0": Const(1)}
    sb = {("t0", v): Var(v) for v in nested.vars}
    lifted = lift_local_bound(Var("x4"), entries, rb, sb)
    assert bound_eval(lifted, {v: 6 for v in nested.vars}) == 6


def test_omega_entry_blocks_lift(nested):
    entries = [nested.transition("t0")]
    rb = {"t0": Const(OMEGA)}
    sb = {("t0", v): Var(v) for v in nested.vars}
    lifted = lift_local_bound(Var("x4"), entries, rb, sb)
    assert is_omega(lifted)


def test_two_phase_needs_only_ranking():
    p = load_fixture("two_phase")
    result = analyze(p, AnalysisConfig(twn_enabled=False))
    assert not is_omega(result.overall)
    assert result.provenance["t1"] == "ranking"
    assert result.provenance["t2"] == "trivial"  # visit-count rule


def test_nonlinear_loop_needs_only_twn():
    p = load_fixture("nonlinear_loop")
    with_ranking_only = analyze(p, AnalysisConfig(twn_enabled=False))
    assert is_omega(with_ranking_only.overall)
    without_ranking = analyze(p, AnalysisConfig(ranking_enabled=False))
    assert not is_omega(without_ranking.overall)
    assert without_ranking.provenance["t1"] == "twn"


def test_structural_rule_requires_finite_predecessors():
    # the loop between l1 and l2 never terminates; nothing may become finite
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x)  l1(x) -> l2(x)  l2(x) -> l1(x))"
    )
    result = analyze(p)
    assert is_omega(result.rb["t1"])
    assert is_omega(result.rb["t2"])
    assert is_omega(result.overall)


def test_deterministic_reports(nested):
    a = report_json(analyze(nested), "nested")
    b = report_json(analyze(nested), "nested")
    a["timings"] = b["timings"] = {}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_runtime_bounds_dominate_oracle_samples(nested):
    from polybound.sim import exhaustive_run

    result = analyze(nested)
    rng = random.Random(0)
    for _ in range(10):
        state = {v: rng.randint(-10, 10) for v in nested.vars}
        abs_state = {v: abs(s) for v, s in state.items()}
        run = exhaustive_run(nested, state, max_steps=2000)
        assert not run.exceeded
        for tid, count in run.per_transition.items():
            assert count <= bound_eval(result.rb[tid], abs_state)
        assert run.rc <= bound_eval(result.overall, abs_state)


def test_ranking_bound_counts_the_last_step():
    # The loop fires once at x = 0, so a template that is only nonnegative
    # where the loop fires (here: x) undercounts by one.
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x)  l1(x) -> l1(x-2) :|: x >= 0)"
    )
    for cfg in (AnalysisConfig(), AnalysisConfig(twn_enabled=False)):
        result = analyze(p, cfg)
        assert result.provenance["t1"] == "ranking"
        for start in range(-3, 9):
            x, steps, largest = start, 0, 0
            while x >= 0:
                x, steps = x - 2, steps + 1
                largest = max(largest, abs(x))
            state = {"x": abs(start)}
            assert steps <= bound_eval(result.rb["t1"], state)
            assert steps + 1 <= bound_eval(result.overall, state)
            assert largest <= bound_eval(result.sb[("t1", "x")], state)
        assert bound_eval(result.rb["t1"], {"x": 0}) == 1
