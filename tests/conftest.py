import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from polybound.engine import AnalysisResult, analyze
from polybound.ir import Polynomial, Program, Transition, TRUE, eval_formula, parse_program
from polybound.sim import make_config, step

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

FIXTURE_NAMES = [
    "nested",
    "geo_race",
    "countdown",
    "two_phase",
    "nonlinear_loop",
    "diverge",
    "two_loops",
    "straight_line",
    "additive",
    "flip_sign",
]


def load_fixture(name: str) -> Program:
    return parse_program((FIXTURES / f"{name}.its").read_text())


@functools.cache
def analyzed_fixture(name: str) -> AnalysisResult:
    """The default analysis of a fixture, computed once per test session."""
    return analyze(load_fixture(name))


def run_python(args: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports this checkout."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env=env, timeout=120,
    )


@pytest.fixture
def nested() -> Program:
    return load_fixture("nested")


@pytest.fixture
def geo_race() -> Program:
    return load_fixture("geo_race")


@pytest.fixture
def countdown() -> Program:
    return load_fixture("countdown")


def iterate_update(
    update: dict[str, Polynomial], state: dict[str, int], n: int
) -> dict[str, int]:
    """Apply the update n times to a concrete state."""
    current = dict(state)
    for _ in range(n):
        current = {v: rhs.evaluate_int(current) for v, rhs in update.items()}
    return current


# A semantic oracle for ranking functions: per transition, up to 1000
# guard-satisfying integer states of [-60, 60]^vars from 8000 seeded draws.
SAMPLED_STATES = 1000
SAMPLE_DRAWS = 8000


def sampled_rf_violation(p: Program, rf, scope: list[Transition]) -> str | None:
    """A violated ranking-function invariant at a sampled integer state, or
    None when every sampled state satisfies both."""
    rng = random.Random(0)
    template = {loc: rf.as_poly(loc) for loc in rf.consts}
    for t in scope:
        checked = 0
        for _ in range(SAMPLE_DRAWS):
            if checked >= SAMPLED_STATES:
                break
            state = {v: rng.randint(-60, 60) for v in p.vars}
            if not eval_formula(t.guard, state):
                continue
            checked += 1
            post = {v: t.update[v].evaluate_int(state) for v in p.vars}
            value = template[t.src].evaluate(state)
            drop = value - template[t.tgt].evaluate(post)
            needed = 1 if t.tid in rf.decreasing else 0
            if drop < needed:
                return f"{t.tid}: drop {drop} below {needed} at {state}"
            if t.tid in rf.decreasing and value < 1:
                return f"{t.tid}: template value below 1 at {state}"
    return None


def random_polynomial(rng: random.Random, variables, max_degree=3, max_coeff=9,
                      max_monomials=2) -> Polynomial:
    p = Polynomial.const(rng.randint(-max_coeff, max_coeff))
    for _ in range(rng.randint(0, max_monomials)):
        if not variables:
            break
        degree = rng.randint(1, max_degree)
        mono = Polynomial.one()
        for _ in range(degree):
            mono = mono * Polynomial.var(rng.choice(list(variables)))
        p = p + mono.scale(rng.randint(-max_coeff, max_coeff))
    return p


def random_twn_transition(rng: random.Random, max_vars=4, max_degree=3,
                          max_coeff=9, allow_negative=True,
                          guard=TRUE) -> Transition:
    """A random self-loop with triangular weakly non-linear update."""
    count = rng.randint(1, max_vars)
    variables = [f"x{i+1}" for i in range(count)]
    update = {}
    for i, v in enumerate(variables):
        low = -max_coeff if allow_negative else 0
        c = rng.randint(low, max_coeff)
        rest = random_polynomial(rng, variables[i + 1:], max_degree, max_coeff)
        update[v] = Polynomial.var(v).scale(c) + rest
    return Transition("loop", "l1", guard, update, "l1")


def wrap_loop(t: Transition) -> Program:
    """Embed a self-loop behind an initial transition."""
    variables = tuple(sorted(t.update.keys(), key=lambda v: (len(v), v)))
    init_update = {v: Polynomial.var(v) for v in variables}
    t0 = Transition("t0", "l0", TRUE, init_update, t.src)
    loop = Transition("t1", t.src, t.guard, dict(t.update), t.tgt)
    return Program(variables, frozenset({"l0", t.src}), "l0", (t0, loop))


def explore_sizes(p: Program, initial_state, max_steps=400, cap=20000):
    """Max ``|v|`` observed right after each transition, plus visit counts.

    Breadth-first over distinct configurations; sound for comparing against
    size bounds because every recorded value comes from a real reachable
    evaluation step.
    """
    root = make_config(p, p.init, initial_state)
    seen = {root}
    frontier = [root]
    maxima: dict[tuple[str, str], int] = {}
    depth = 0
    while frontier and depth < max_steps and len(seen) < cap:
        depth += 1
        next_frontier = []
        for config in frontier:
            for t, succ in step(p, config):
                for v, value in zip(p.vars, succ.values):
                    key = (t.tid, v)
                    maxima[key] = max(maxima.get(key, 0), abs(value))
                if succ not in seen:
                    seen.add(succ)
                    next_frontier.append(succ)
        frontier = next_frontier
    return maxima
