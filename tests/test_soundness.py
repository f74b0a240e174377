"""Soundness of every reported bound against exhaustive runs.

The oracle is the benchmark's (``perfbench/oracle.py``): from a seeded
sample of small initial states it compares each finite runtime bound RB,
size bound SB and overall bound with what ``exhaustive_run`` observes, and
flags a finite overall bound from which a configuration cycle is reachable.
Every program is checked under the three configurations.  Each reported
nontermination witness is run apart from the analyzer, which checks it only
by a short simulation of its own.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybound.engine import AnalysisConfig, analyze
from polybound.ir import TRUE, Polynomial, Program, Transition, parse_program
from polybound.sim import exhaustive_run

from conftest import benchmark_jobs, load_fixture, perfbench_module

oracle = perfbench_module("oracle")

CONFIGURATIONS = {
    "default": {},
    "no-twn": {"twn_enabled": False},
    "no-ranking": {"ranking_enabled": False},
}


def violations(text: str, seed: int, pid: str) -> tuple[list[str], int]:
    """The oracle's findings under each configuration, and the number of
    state verdicts they rest on."""
    program = parse_program(text)
    states = oracle.initial_states(program, seed, pid)
    found: list[str] = []
    checked = 0
    for name, options in CONFIGURATIONS.items():
        result = analyze(program, AnalysisConfig(**options))
        more, verdicts = oracle.violations(program, result, states)
        found += [f"{name}: {v}" for v in more]
        checked += verdicts
    return found, checked


# Programs kept out of ``fixtures/``, whose workload digest they would change.
# ``odd_step``: ``x -> 5 - x`` runs as a doubled twn loop without ranking, and
# one step from x = 0 reaches 5, beyond the closed form's even-step sizes;
# only the size of the path's proper prefix covers it.
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("seed", [1, 7])
def test_fixtures_are_sound_under_every_configuration(seed):
    # the benchmark's fixtures, with the off-by-one input, then tests/data's
    inputs = [(job.pid, job.text) for job in benchmark_jobs("fixtures", seed)]
    inputs += [(path.stem, path.read_text()) for path in sorted(DATA.glob("*.its"))]
    checked = 0
    for pid, text in inputs:
        found, verdicts = violations(text, seed, pid)
        assert not found, (pid, found)
        checked += verdicts
    assert checked > 0


VARIABLES = ("x", "y")


@st.composite
def linear_update(draw, v, later):
    """``v`` plus a constant and, maybe, a variable updated after it."""
    rhs = f"{v}{draw(st.integers(-2, 1)):+d}"
    if later and draw(st.booleans()):
        rhs += f"+{draw(st.sampled_from(later))}"
    return rhs


@st.composite
def twn_update(draw, v, later):
    """A self-coefficient in -2..3, a polynomial over the later variables."""
    rhs = f"{draw(st.integers(-2, 3))}*{v}{draw(st.integers(-2, 2)):+d}"
    if later and draw(st.booleans()):
        w = draw(st.sampled_from(later))
        rhs += draw(st.sampled_from([f"+{w}", f"-{w}", f"+{w}^2"]))
    return rhs


@st.composite
def nonlinear_update(draw, v, later):
    """``v`` times a later variable, which is not twn.  A variable that
    squares itself would outgrow the oracle's runs within a few steps."""
    if not later:
        return draw(linear_update(v, later))
    w = draw(st.sampled_from(later))
    return draw(st.sampled_from([f"{v}*{w}", f"{v}*{w}-1", f"{v}*{w}+{v}"]))


@st.composite
def self_loop_update(draw, variables):
    kind = draw(st.sampled_from([linear_update, twn_update, nonlinear_update]))
    return ",".join(
        draw(kind(v, variables[i + 1:])) for i, v in enumerate(variables)
    )


@st.composite
def guard(draw, variables):
    def relation():
        lhs = draw(st.sampled_from(variables))
        if len(variables) > 1 and draw(st.booleans()):
            lhs += draw(st.sampled_from(["+", "-"])) + draw(st.sampled_from(variables))
        rel = draw(st.sampled_from(["<", ">", "<=", ">=", "=", "!="]))
        return f"{lhs} {rel} {draw(st.integers(-2, 3))}"

    relations = [relation() for _ in range(draw(st.integers(1, 2)))]
    return f" {draw(st.sampled_from(['&&', '||']))} ".join(relations)


@st.composite
def programs(draw) -> str:
    """1-2 locations with a self-loop each, joined by a chain ``l1 -> l2``
    that may lead back, over 1-2 variables."""
    variables = list(VARIABLES[:draw(st.integers(1, 2))])
    args = ",".join(variables)
    locations = ["l1", "l2"][:draw(st.integers(1, 2))]
    rules = [f"l0({args}) -> l1({args})"]
    for loc in locations:
        rules.append(f"{loc}({args}) -> {loc}({draw(self_loop_update(variables))})"
                     f" :|: {draw(guard(variables))}")
    if len(locations) == 2:
        rules.append(f"l1({args}) -> l2({args}) :|: {draw(guard(variables))}")
        if draw(st.booleans()):
            rules.append(f"l2({args}) -> l1({draw(self_loop_update(variables))})"
                         f" :|: {draw(guard(variables))}")
    return (
        "(GOAL COMPLEXITY)\n(STARTTERM (FUNCTIONSYMBOLS l0))\n"
        f"(VAR {' '.join(variables)})\n(RULES\n"
        + "".join(f"  {rule}\n" for rule in rules) + ")\n"
    )


@settings(max_examples=20, derandomize=True)
@given(programs())
def test_generated_programs_are_sound_under_every_configuration(text):
    found, _ = violations(text, 1, "generated")
    assert not found, (text, found)


WITNESS_STEPS = 10_000
NONTERMINATING_LOOPS = ["nonterm_shift", "nonterm_feed", "nonterm_race", "nonlinear_wide"]


@pytest.mark.parametrize(
    "pid, seed",
    [("diverge", None)] + [(pid, seed) for seed in (1, 7) for pid in NONTERMINATING_LOOPS],
)
def test_nontermination_witnesses_run_past_the_step_budget(pid, seed):
    if seed is None:
        program, config = load_fixture(pid), AnalysisConfig()
    else:
        job = next(job for job in benchmark_jobs("twn_loops", seed) if job.pid == pid)
        program = parse_program(job.text)
        config = AnalysisConfig(twn_enabled=job.twn, ranking_enabled=job.ranking)
    verdicts = analyze(program, config).twn_verdicts
    witnesses = {tid: v["witness"] for tid, v in verdicts.items() if v["status"] == "nonterminating"}
    assert set(witnesses) == {"t1"}, verdicts
    # an identity entry and the reported loop alone, started at the witness
    loop = program.transition("t1")
    entry = Transition("entry", "witness", TRUE, {v: Polynomial.var(v) for v in program.vars},
                       loop.src)
    alone = Program(program.vars, frozenset({"witness", loop.src}), "witness", (entry, loop))
    state = {v: witnesses["t1"].get(v, 0) for v in program.vars}
    run = exhaustive_run(alone, state, WITNESS_STEPS)
    assert run.exceeded_reason in ("cycle", "depth", "size"), (state, run.rc)
