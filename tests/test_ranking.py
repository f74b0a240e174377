import dataclasses
import random
import re

import pytest

import polybound.smt
from polybound import minismt, ranking
from polybound.bounds import bound_eval
from polybound.engine import AnalysisConfig, analyze
from polybound.ir import Polynomial, dnf, entry_transitions, eval_formula, parse_program
from polybound.ranking import (
    RankingFunction,
    RankingValidationError,
    rf_local_bound,
    synthesize_lrf,
    validate_rf,
)

from conftest import FIXTURE_NAMES, benchmark_jobs, load_fixture, sampled_rf_violation


def test_countdown_rf(countdown, smt):
    t1 = countdown.transition("t1")
    rf = synthesize_lrf(countdown, [t1], [t1], smt)
    assert rf is not None
    # decrease and nonnegativity, checked by substitution on guarded states
    template = rf.templates["l1"]
    for start in range(1, 30):
        value = template.evaluate({"x": start})
        after = template.evaluate({"x": start - 1})
        assert value - after >= 1
        assert value >= 1


def test_incrementing_loop_has_no_rf(smt):
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x)  l1(x) -> l1(x+1) :|: x > 0)"
    )
    t1 = p.transition("t1")
    assert synthesize_lrf(p, [t1], [t1], smt) is None


def test_nested_singleton_t1(nested, smt):
    scc = [nested.transition(t) for t in ("t1", "t2", "t3")]
    rf = synthesize_lrf(nested, scc, [nested.transition("t1")], smt)
    assert rf is not None
    bound = rf_local_bound(rf, entry_transitions(nested, scc))
    # linear in x4: evaluation grows linearly
    lo = bound_eval(bound, {v: 0 for v in nested.vars})
    hi = bound_eval(bound, {v: (10 if v == "x4" else 0) for v in nested.vars})
    assert hi > lo


def test_nested_trivial_guard_blocks_nonnegativity(nested, smt):
    # t2 fires unconditionally, so no affine template can be provably
    # nonnegative at its source; synthesis must refuse rather than guess
    scc = [nested.transition(t) for t in ("t1", "t2", "t3")]
    assert synthesize_lrf(nested, scc, [nested.transition("t2")], smt) is None


def test_nested_nonlinear_loop_not_rankable(nested, smt):
    scc = [nested.transition(t) for t in ("t1", "t2", "t3")]
    assert synthesize_lrf(nested, scc, [nested.transition("t3")], smt) is None


def test_two_phase_singleton(smt):
    p = load_fixture("two_phase")
    scc = [p.transition("t1"), p.transition("t2")]
    rf = synthesize_lrf(p, scc, [p.transition("t1")], smt)
    assert rf is not None


def test_rf_local_bound_examples():
    rf = RankingFunction(
        templates={"l1": Polynomial.var("x4")},
        decreasing=frozenset({"t1"}),
    )
    p = load_fixture("nested")
    entries = [p.transition("t0")]  # targets l1
    bound = rf_local_bound(rf, entries)
    assert bound_eval(bound, {v: 7 for v in p.vars}) == 7

    rf2 = RankingFunction(
        templates={"l1": Polynomial.var("x4") - 3},
        decreasing=frozenset({"t1"}),
    )
    bound2 = rf_local_bound(rf2, entries)
    assert bound_eval(bound2, {v: 5 for v in p.vars}) == 8  # |x4| + |-3|


def test_rf_local_bound_sums_distinct_entry_targets():
    p = load_fixture("two_phase")
    rf = RankingFunction(
        templates={"l1": Polynomial.var("x"), "l2": Polynomial.var("y")},
        decreasing=frozenset({"t1"}),
    )
    entries = [p.transition("t0"), p.transition("t1")]  # target l1 and l2
    bound = rf_local_bound(rf, entries)
    assert bound_eval(bound, {"x": 3, "y": 4}) == 7


def test_validation_rejects_wrong_certificate(countdown):
    bogus = RankingFunction(
        templates={"l1": -Polynomial.var("x")},  # increases along the loop
        decreasing=frozenset({"t1"}),
    )
    with pytest.raises(RankingValidationError):
        validate_rf(bogus, [countdown.transition("t1")])


def test_synthesized_rf_respects_pinned_nonlinear_targets(nested, smt):
    scc = [nested.transition(t) for t in ("t1", "t2", "t3")]
    rf = synthesize_lrf(nested, scc, [nested.transition("t1")], smt)
    # x2 is updated non-linearly by t3 (which targets l2), so its template
    # coefficient at l2 must be zero for the composition to stay affine
    assert rf.templates["l2"].coefficient((("x2", 1),)) == 0


def synthesized_rfs(programs, cfg_factory=AnalysisConfig):
    """Every (program, ranking function, scope) that the analyses of
    *programs* synthesize and accept."""
    found = []
    original = ranking.validate_rf

    def recording(rf, scope):
        original(rf, scope)
        found.append((p, rf, scope))  # the program under analysis below

    ranking.validate_rf = recording
    try:
        for p in programs:
            analyze(p, cfg_factory())
    finally:
        ranking.validate_rf = original
    return found


def benchmark_rings(seeds):
    """The ranking-only rings of the benchmark's ``ranking_wide`` workload."""
    return [parse_program(job.text) for seed in seeds
            for job in benchmark_jobs("ranking_wide", seed)]


@pytest.fixture(scope="module")
def fixture_rfs():
    return synthesized_rfs([load_fixture(name) for name in FIXTURE_NAMES])


def test_accepted_rfs_pass_the_sampling_oracle(fixture_rfs):
    ring_rfs = synthesized_rfs(
        benchmark_rings([1, 2]), lambda: AnalysisConfig(twn_enabled=False)
    )
    assert len(fixture_rfs) >= 5 and len(ring_rfs) >= 10
    for p, rf, scope in fixture_rfs + ring_rfs:
        assert sampled_rf_violation(p, rf, scope) is None, rf


def guard_state(p, t):
    """An integer state in which *t* can fire, or None."""
    rng = random.Random(0)
    for _ in range(8000):
        state = {v: rng.randint(-60, 60) for v in p.vars}
        if eval_formula(t.guard, state):
            return state
    return None


CERTIFICATE_FAILURE = re.compile(
    r"(\S+): (drop|template value) on clause (\d+) leaves (.*) under multipliers \[.*\] for \d+ rows"
)


def leftover(p, rf, tid, i, what):
    """What the certificate of one implication leaves, recomputed here."""
    t = p.transition(tid)
    value = rf.templates[t.src]
    counted = tid in rf.decreasing
    if what == "drop":
        rest = value - rf.templates[t.tgt].substitute(t.update) - (1 if counted else 0)
    else:
        assert what == "template value" and counted
        rest = value - 1
    atoms = [a for a in dnf(t.guard)[i] if a.poly.degree() <= 1]
    for lam, atom in zip(rf.multipliers[(tid, i, what)], atoms):
        rest = rest - (atom.poly - 1).scale(lam)
    return rest


def assert_rejected_with_its_leftover(p, rf, scope):
    """validate_rf raises, and the leftover its message names is what this
    test recomputes for the named implication, which it does not certify."""
    with pytest.raises(RankingValidationError) as info:
        validate_rf(rf, scope)
    tid, what, i, named = CERTIFICATE_FAILURE.fullmatch(str(info.value)).groups()
    rest = leftover(p, rf, tid, int(i), what)
    assert named == str(rest)
    lams = rf.multipliers[(tid, int(i), what)]
    assert not rest.is_const or rest.const_value() < 0 or min(lams, default=0) < 0


def test_mutated_rfs_are_rejected_with_their_leftover(fixture_rfs):
    mutated = 0
    for p, rf, scope in fixture_rfs:
        for t in scope:
            state = guard_state(p, t)
            if t.tid not in rf.decreasing or state is None:
                continue
            template = rf.templates[t.src]
            # value 0 where t fires
            templates = dict(rf.templates)
            templates[t.src] = template - template.evaluate(state)
            assert_rejected_with_its_leftover(p, dataclasses.replace(rf, templates=templates), scope)
            # negate the template's first nonzero coefficient at t's source
            var = next((v for v in p.vars if template.coefficient(((v, 1),))), None)
            if var is not None:
                coeff = template.coefficient(((var, 1),))
                templates[t.src] = template - Polynomial.var(var).scale(2 * coeff)
                assert_rejected_with_its_leftover(p, dataclasses.replace(rf, templates=templates), scope)
            mutated += 1
    assert mutated >= 5


def test_perturbed_multipliers_are_rejected(fixture_rfs):
    perturbed = 0
    for p, rf, scope in fixture_rfs:
        for (tid, i, what), lams in rf.multipliers.items():
            rows = [a.poly - 1 for a in dnf(p.transition(tid).guard)[i] if a.poly.degree() <= 1]
            for j, (lam, row) in enumerate(zip(lams, rows)):
                if lam == 0 or row.is_const:
                    continue
                for changed in (-lam, 2 * lam):
                    multipliers = dict(rf.multipliers)
                    multipliers[(tid, i, what)] = lams[:j] + (changed,) + lams[j + 1:]
                    with pytest.raises(RankingValidationError, match=f"^{tid}: {what} on clause {i} "):
                        validate_rf(dataclasses.replace(rf, multipliers=multipliers), scope)
                perturbed += 1
    assert perturbed >= 5


def test_validation_runs_no_lp(fixture_rfs, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("validate_rf ran an LP")

    # where it is defined, where the solver bridge calls it, and in case
    # validation imported it by name
    monkeypatch.setattr(minismt, "solve_lp", forbidden)
    monkeypatch.setattr(polybound.smt, "solve_lp", forbidden)
    monkeypatch.setattr(ranking, "solve_lp", forbidden, raising=False)
    for p, rf, scope in fixture_rfs:
        validate_rf(rf, scope)
