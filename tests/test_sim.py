import pytest

from polybound.ir import parse_program
from polybound.sim import VALUE_BITS_CAP, exhaustive_run, make_config, step

from conftest import load_fixture

TRACE_START = {"x1": 7, "x2": 5, "x3": 1, "x4": 1, "x5": 3}


def test_reference_trace_prefix(nested):
    c = make_config(nested, "l0", TRACE_START)
    (t, c) = step(nested, c)[0]
    assert (t.tid, c.loc, c.values) == ("t0", "l1", (7, 5, 1, 1, 3))
    successors = step(nested, c)
    assert [(t.tid, s.loc, s.values) for t, s in successors] == [
        ("t1", "l2", (1, 3, 1, 1, 3))
    ]
    c = successors[0][1]
    successors = step(nested, c)
    assert [t.tid for t, _ in successors] == ["t2", "t3"]
    c = successors[1][1]
    assert c.values == (4, 19, 1, 1, 3)
    c = [s for t, s in step(nested, c) if t.tid == "t3"][0]
    assert (c.loc, c.values) == ("l2", (16, 163, 1, 1, 3))


def test_terminated_configuration_has_no_steps():
    p = load_fixture("straight_line")
    assert step(p, make_config(p, "l2", {"x": 5})) == []


def test_countdown_runtime(countdown):
    result = exhaustive_run(countdown, {"x": 5}, max_steps=100)
    assert result.rc == 6  # initial transition plus five decrements
    assert result.per_transition == {"t0": 1, "t1": 5}


def test_divergence_reports_exceeded():
    p = load_fixture("diverge")
    result = exhaustive_run(p, {"x": 1}, max_steps=100)
    assert result.exceeded
    assert result.rc is None
    assert (result.exceeded_reason, result.explored) == ("depth", 101)


def test_cycle_detection():
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x)  l1(x) -> l1(x))"
    )
    result = exhaustive_run(p, {"x": 0}, max_steps=50)
    assert result.exceeded and result.exceeded_reason == "cycle"
    assert result.explored == 2


SELF_SQUARING = (
    "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
    "(RULES l0(x) -> l1(x)  l1(x) -> l1(x*x-1) :|: x >= -2)"
)


def test_self_squaring_loop_stops_on_value_size():
    # the value's bit length doubles every step, far below the step budget
    result = exhaustive_run(parse_program(SELF_SQUARING), {"x": 2}, max_steps=10_000)
    assert result.exceeded and result.exceeded_reason == "size"
    assert result.explored == 18


def test_value_size_cap_is_inclusive():
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)(RULES l0(x) -> l1(x))"
    )
    largest = 2**VALUE_BITS_CAP - 1
    assert exhaustive_run(p, {"x": -largest}, max_steps=5).rc == 1
    result = exhaustive_run(p, {"x": largest + 1}, max_steps=5)
    assert result.exceeded and result.exceeded_reason == "size"


def test_determinism(nested):
    a = exhaustive_run(nested, TRACE_START, max_steps=500)
    b = exhaustive_run(nested, TRACE_START, max_steps=500)
    assert (a.rc, a.per_transition) == (b.rc, b.per_transition)


def test_per_transition_suprema_are_per_path_maxima():
    # two branches: one fires ta twice, the other fires tb once; the counts
    # come from different paths while rc is the longest single path
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES"
        "  l0(x) -> a1(x)"
        "  a1(x) -> a2(0) :|: x > 0"
        "  a2(x) -> a3(x)"
        "  a1(x) -> b1(x) :|: x > 0"
        ")"
    )
    result = exhaustive_run(p, {"x": 1}, max_steps=50)
    assert result.rc == 3  # l0 -> a1 -> a2 -> a3
    assert result.per_transition["t1"] == 1
    assert result.per_transition["t3"] == 1
    assert sum(result.per_transition.values()) >= result.rc


def test_exhaustive_counts_dominate_each_branch(nested):
    result = exhaustive_run(nested, TRACE_START, max_steps=500)
    assert result.rc == 5
    assert result.per_transition == {"t0": 1, "t1": 1, "t2": 1, "t3": 2}


def test_negative_max_steps_rejected(countdown):
    with pytest.raises(ValueError):
        exhaustive_run(countdown, {"x": 1}, max_steps=-1)


def test_budget_boundaries(countdown):
    # six steps through seven configurations from x=5: the budgets admit
    # them at 6 steps and 7 configurations, and stop the run one below
    result = exhaustive_run(countdown, {"x": 5}, max_steps=6, visited_cap=7)
    assert (result.rc, result.exceeded, result.explored) == (6, False, 7)
    result = exhaustive_run(countdown, {"x": 5}, max_steps=5)
    assert (result.rc, result.exceeded_reason, result.explored) == (None, "depth", 6)
    result = exhaustive_run(countdown, {"x": 5}, max_steps=6, visited_cap=6)
    assert (result.rc, result.exceeded_reason, result.explored) == (None, "cap", 7)
    result = exhaustive_run(countdown, {"x": 5}, max_steps=6, visited_cap=3)
    assert (result.rc, result.exceeded_reason, result.explored) == (None, "cap", 4)


# l0 -> a -> c reaches c(3) at depth 2 first; a -> b -> c reaches it again at
# depth 3, so the longest path (6 steps) runs through an explored configuration
REJOINING = (
    "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
    "(RULES l0(x) -> a(x)  a(x) -> c(x)  a(x) -> b(x)  b(x) -> c(x)"
    "  c(x) -> c(x-1) :|: x > 0)"
)


def test_rejoining_path_counts_against_the_step_budget():
    p = parse_program(REJOINING)
    result = exhaustive_run(p, {"x": 3}, max_steps=6)
    assert (result.rc, result.explored) == (6, 7)
    assert result.per_transition == {"t0": 1, "t1": 1, "t2": 1, "t3": 1, "t4": 3}
    result = exhaustive_run(p, {"x": 3}, max_steps=5)
    assert (result.rc, result.exceeded_reason, result.explored) == (None, "depth", 7)
