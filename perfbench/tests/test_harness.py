"""Tests of the benchmark harness itself: run with

    python3 -m pytest perfbench/tests
"""

import sys

import pytest

import harness
import oracle
import workloads
from polybound import AnalysisConfig, analyze, parse_program
from polybound.bounds import Const, Var
from polybound.ir import Atom, Polynomial
from spans import Span, Tracer, instrumented, self_times

COUNTDOWN = workloads.self_loop(["x"], ["x-1"], "x > 0")


@pytest.mark.parametrize("name", ["ranking_wide", "twn_loops"])
def test_generators_are_deterministic_for_a_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)
    for job in make(7):
        parse_program(job.text)


def test_fixtures_include_the_off_by_one_input():
    jobs = workloads.fixtures(0)
    assert jobs[-1].pid == "off_by_one"
    assert len(jobs) == len({job.pid for job in jobs})


def test_initial_states_are_seeded_and_include_zero():
    program = parse_program(COUNTDOWN)
    states = oracle.initial_states(program, 3, "p")
    assert states == oracle.initial_states(program, 3, "p")
    assert states[0] == {"x": 0}
    assert len(states) == len({tuple(s.values()) for s in states})


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None, "p"),
        Span("a", 1.0, 4.0, 0, "p"),
        Span("a.inner", 2.0, 3.0, 1, "p"),
        Span("b", 5.0, 9.0, 0, "p"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_tracer_links_nested_spans_and_restores_wrapped_functions():
    from polybound import engine

    original = engine.synthesize_lrf
    tracer = Tracer()
    with instrumented(tracer):
        assert engine.synthesize_lrf is not original
        with tracer.span("program"):
            with tracer.span("inner"):
                pass
    assert engine.synthesize_lrf is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("program", None), ("inner", 0)]


def test_tail_leaves_ten_samples_above_it():
    value, percentile, n = harness.tail([float(i) for i in range(33)])
    assert (value, n) == (22.0, 33)
    assert percentile == pytest.approx(100 * 23 / 33)
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def test_a_pass_starts_only_below_the_minimum_or_if_it_fits():
    now = harness.time.perf_counter()
    # Two passes took 10 s, so the next one is expected to take 5 s.
    assert harness.another_pass(now + 1, now - 10, 2, minimum=3)
    assert not harness.another_pass(now + 4, now - 10, 2, minimum=2)
    assert harness.another_pass(now + 6, now - 10, 2, minimum=2)


def _unbounded(text):
    """A result with every cyclic transition at omega, asking no solver."""
    return analyze(parse_program(text),
                   AnalysisConfig(twn_enabled=False, ranking_enabled=False))


def test_too_small_bound_counts_as_a_failure():
    result = _unbounded(COUNTDOWN)
    states = oracle.initial_states(result.program, 0, "countdown")
    assert oracle.violations(result.program, result, states)[0] == []

    result.rb["t1"] = Var("x")  # exact: the loop runs x times from x >= 0
    assert oracle.violations(result.program, result, states)[0] == []

    result.rb["t1"] = Const(1)
    found, checked = oracle.violations(result.program, result, states)
    assert checked == len(states)
    assert any(f.startswith("RB(t1) = 1 <") for f in found)

    analysis = harness.Analysis("countdown", 0.0, 0.0, 0.0, result, None)
    job = workloads.Job("countdown", COUNTDOWN)
    assert "countdown" in harness.soundness([job], [analysis], 0)


def test_finite_bound_with_a_reachable_cycle_is_a_failure():
    result = _unbounded(workloads.self_loop(["x"], ["x"], "x > 0"))
    result.overall = Const(5)
    found, _ = oracle.violations(result.program, result, [{"x": 1}])
    assert found and "cycle" in found[0]


def test_an_analysis_that_raises_is_a_failure():
    analysis = harness.Analysis("p", 0.0, 0.0, 0.0, None, "ValueError: boom")
    failures = harness.soundness([workloads.Job("p", COUNTDOWN)], [analysis], 0)
    assert failures == {"p": ["analysis raised ValueError: boom"]}


def test_health_gate_fires_on_a_solver_that_prints_nothing():
    smt = harness.GatedSmt(solver=[sys.executable, "-c", "pass"])
    with pytest.raises(harness.SolverHealthError, match="no verdict"):
        smt.sat_int(Atom(Polynomial.var("x")))
    with pytest.raises(harness.SolverHealthError, match="no verdict"):
        smt.sat_real([])


def test_health_gate_fires_on_a_missing_solver():
    smt = harness.GatedSmt(solver=["/nonexistent/solver"])
    with pytest.raises(harness.SolverHealthError, match="solver not found"):
        smt.sat_int(Atom(Polynomial.var("x")))


def test_digest_ignores_timings_only():
    result = _unbounded(COUNTDOWN)
    a = harness.Analysis("p", 0.0, 0.0, 0.0, result, None)
    first = harness.digest([harness.report(a)])
    result.timings["analysis_s"] += 1.0
    assert harness.digest([harness.report(a)]) == first
    result.rb["t1"] = Const(3)
    assert harness.digest([harness.report(a)]) != first
