from fractions import Fraction

import pytest

from polybound.bounds import bound_eval
from polybound.ir import entry_transitions, parse_program
from polybound.ranking import (
    RankingFunction,
    RankingValidationError,
    rf_local_bound,
    synthesize_lrf,
    validate_rf,
)

from conftest import load_fixture


def test_countdown_rf(countdown):
    t1 = countdown.transition("t1")
    rf = synthesize_lrf(countdown, [t1], [t1])
    assert rf is not None
    # decrease and nonnegativity, checked by substitution on guarded states
    template = rf.as_poly("l1")
    for start in range(1, 30):
        value = template.evaluate({"x": start})
        after = template.evaluate({"x": start - 1})
        assert value - after >= 1
        assert value >= 1


def test_incrementing_loop_has_no_rf():
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x)  l1(x) -> l1(x+1) :|: x > 0)"
    )
    t1 = p.transition("t1")
    assert synthesize_lrf(p, [t1], [t1]) is None


def test_nested_singleton_t1(nested):
    scc = [nested.transition(t) for t in ("t1", "t2", "t3")]
    rf = synthesize_lrf(nested, scc, [nested.transition("t1")])
    assert rf is not None
    bound = rf_local_bound(rf, entry_transitions(nested, scc))
    # linear in x4: evaluation grows linearly
    lo = bound_eval(bound, {v: 0 for v in nested.vars})
    hi = bound_eval(bound, {v: (10 if v == "x4" else 0) for v in nested.vars})
    assert hi > lo


def test_nested_trivial_guard_blocks_nonnegativity(nested):
    # t2 fires unconditionally, so no affine template can be provably
    # nonnegative at its source; synthesis must refuse rather than guess
    scc = [nested.transition(t) for t in ("t1", "t2", "t3")]
    assert synthesize_lrf(nested, scc, [nested.transition("t2")]) is None


def test_nested_nonlinear_loop_not_rankable(nested):
    scc = [nested.transition(t) for t in ("t1", "t2", "t3")]
    assert synthesize_lrf(nested, scc, [nested.transition("t3")]) is None


def test_two_phase_singleton():
    p = load_fixture("two_phase")
    scc = [p.transition("t1"), p.transition("t2")]
    rf = synthesize_lrf(p, scc, [p.transition("t1")])
    assert rf is not None


def test_rf_local_bound_examples():
    rf = RankingFunction(
        coeffs={"l1": {"x4": Fraction(1)}},
        consts={"l1": Fraction(0)},
        decreasing=frozenset({"t1"}),
        scope=frozenset({"t1"}),
    )
    p = load_fixture("nested")
    entries = [p.transition("t0")]  # targets l1
    bound = rf_local_bound(rf, entries)
    assert bound_eval(bound, {v: 7 for v in p.vars}) == 7

    rf2 = RankingFunction(
        coeffs={"l1": {"x4": Fraction(1)}},
        consts={"l1": Fraction(-3)},
        decreasing=frozenset({"t1"}),
        scope=frozenset({"t1"}),
    )
    bound2 = rf_local_bound(rf2, entries)
    assert bound_eval(bound2, {v: 5 for v in p.vars}) == 8  # |x4| + |-3|


def test_rf_local_bound_sums_distinct_entry_targets():
    p = load_fixture("two_phase")
    rf = RankingFunction(
        coeffs={"l1": {"x": Fraction(1)}, "l2": {"y": Fraction(1)}},
        consts={"l1": Fraction(0), "l2": Fraction(0)},
        decreasing=frozenset({"t1"}),
        scope=frozenset({"t1", "t2"}),
    )
    entries = [p.transition("t0"), p.transition("t1")]  # target l1 and l2
    bound = rf_local_bound(rf, entries)
    assert bound_eval(bound, {"x": 3, "y": 4}) == 7


def test_validation_rejects_wrong_certificate(countdown):
    bogus = RankingFunction(
        coeffs={"l1": {"x": Fraction(-1)}},  # increases along the loop
        consts={"l1": Fraction(0)},
        decreasing=frozenset({"t1"}),
        scope=frozenset({"t1"}),
    )
    with pytest.raises(RankingValidationError):
        validate_rf(countdown, bogus, [countdown.transition("t1")])


def test_synthesized_rf_respects_pinned_nonlinear_targets(nested):
    scc = [nested.transition(t) for t in ("t1", "t2", "t3")]
    rf = synthesize_lrf(nested, scc, [nested.transition("t1")])
    # x2 is updated non-linearly by t3 (which targets l2), so its template
    # coefficient at l2 must be zero for the composition to stay affine
    assert rf.coeffs["l2"].get("x2", Fraction(0)) == 0
