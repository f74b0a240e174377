import functools
import importlib.util
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from polybound.engine import AnalysisResult, analyze
from polybound.ir import Polynomial, Program, Transition, TRUE, eval_formula, parse_program
from polybound.ir.linear import LinearConstraint
from polybound.sim import make_config, step
from polybound.smt import SmtContext

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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


def perfbench_module(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def benchmark_jobs(workload: str, seed: int) -> list:
    """The ``Job``s of one of the benchmark's workloads at ``seed``."""
    return perfbench_module("workloads").WORKLOADS[workload](seed)


def run_python(args: list[str], stdin: str = "", cwd=None,
               timeout: float = 120) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports this checkout."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env=env, cwd=cwd, timeout=timeout,
    )


def shadowing_directory(path: Path) -> Path:
    """``path`` holding a ``fractions.py`` and a ``polybound`` package that
    both exit at import, as a working directory no import may come from."""
    (path / "polybound").mkdir(parents=True)
    for module in (path / "fractions.py", path / "polybound" / "__init__.py"):
        module.write_text(f"raise SystemExit('imported {module.relative_to(path)}')\n")
    return path


@pytest.fixture(scope="session", autouse=True)
def bundled_solver():
    """Every test's default context and CLI run, in-process or through
    :func:`run_python`, resolves the bundled procedure, which wrote the
    goldens: ``POLYBOUND_SMT`` is unset for the session, and a test that
    names a solver names it itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("POLYBOUND_SMT", raising=False)
        yield


@pytest.fixture
def nested() -> Program:
    return load_fixture("nested")


@pytest.fixture
def geo_race() -> Program:
    return load_fixture("geo_race")


@pytest.fixture
def countdown() -> Program:
    return load_fixture("countdown")


@pytest.fixture(scope="module")
def smt() -> SmtContext:
    """One solver context for a module's direct calls that need one."""
    return SmtContext()


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
            value = rf.templates[t.src].evaluate(state)
            drop = value - rf.templates[t.tgt].evaluate(post)
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


# The bundled exact simplex with Fraction tableau rows, kept as a reference
# for the fraction-free one in polybound.minismt: tableau rows are sparse
# ``column -> Fraction`` dicts holding no zeros, the right-hand side under RHS.
RHS = -1


def reference_solve_lp(constraints: list[LinearConstraint], deadline: float | None = None):
    """:func:`polybound.minismt.solve_lp` as it was with a ``Fraction`` tableau:
    the oracle its fraction-free tableau must match pivot for pivot.

    Feasibility of ``sum coeffs + const REL 0`` rows, REL ``=`` or ``>=``.

    Returns (status, point) with status 'sat' or 'unsat'; point maps variable
    names to Fractions.  Raises ``TimeoutError`` if a pivot is due after
    *deadline*, a :func:`time.monotonic` instant.
    """
    cols: dict[str, int] = {}

    def col(name: str) -> int:
        return cols.setdefault(name, len(cols))

    geq_rows: list[dict[int, Fraction]] = []
    eq_rows: list[dict[int, Fraction]] = []
    for c in constraints:
        row: dict[int, Fraction] = {RHS: -c.const}
        for var, k in c.coeffs:
            pc, uc = col("p!" + var), col("u!")
            row[pc] = row.get(pc, 0) + k
            row[uc] = row.get(uc, 0) - k
        (eq_rows if c.rel == "=" else geq_rows).append(row)

    # slack columns for >= rows (lhs - slack = rhs), then one artificial per row
    slack_base = len(cols)
    art_base = slack_base + len(geq_rows)
    tableau: list[dict[int, Fraction]] = []
    for i, row in enumerate(geq_rows + eq_rows):
        if i < len(geq_rows):
            row[slack_base + i] = Fraction(-1)
        sign = -1 if row[RHS] < 0 else 1
        row = {j: sign * v for j, v in row.items() if v}
        row[art_base + i] = Fraction(1)
        tableau.append(row)
    basis = [art_base + i for i in range(len(tableau))]

    # maximize -sum(artificials); the objective row holds reduced costs
    obj: dict[int, Fraction] = {j: Fraction(1) for j in basis}
    for row in tableau:
        _reference_eliminate(obj, Fraction(1), row)
    _reference_simplex(tableau, basis, obj, deadline)
    if obj.get(RHS):  # the objective's rhs tracks -sum(artificials)
        return "unsat", {}

    value = {b: tableau[i].get(RHS, Fraction(0)) for i, b in enumerate(basis)}
    shift = value.get(cols.get("u!"), Fraction(0))
    return "sat", {
        name[2:]: value.get(c, Fraction(0)) - shift
        for name, c in cols.items()
        if name.startswith("p!")
    }


def _reference_simplex(tableau, basis, obj, deadline):
    """Bland's rule; pivots until no objective column below zero remains.

    The entering column is the lowest one with a negative reduced cost; ties
    in the ratio test go to the row whose basic column is lowest.
    """
    while True:
        entering = min((j for j, v in obj.items() if j != RHS and v < 0), default=None)
        if entering is None:
            return
        best_i = None
        best_ratio = None
        for i, row in enumerate(tableau):
            coeff = row.get(entering, 0)
            if coeff > 0:
                ratio = row.get(RHS, 0) / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_i])
                ):
                    best_ratio = ratio
                    best_i = i
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("simplex past its deadline")
        _reference_pivot(tableau, basis, best_i, entering)
        _reference_eliminate(obj, obj[entering], tableau[best_i])


def _reference_pivot(tableau, basis, row_i, col_j):
    inv = 1 / tableau[row_i][col_j]
    pivot_row = {j: v * inv for j, v in tableau[row_i].items()}
    tableau[row_i] = pivot_row
    for i, other in enumerate(tableau):
        if i != row_i and col_j in other:
            _reference_eliminate(other, other[col_j], pivot_row)
    basis[row_i] = col_j


def _reference_eliminate(row: dict[int, Fraction], factor: Fraction, pivot_row) -> None:
    """``row -= factor * pivot_row`` in place, dropping entries that cancel."""
    for j, v in pivot_row.items():
        new = row.get(j, 0) - factor * v
        if new:
            row[j] = new
        else:
            row.pop(j, None)
