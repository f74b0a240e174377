import io
import json
import math
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybound.smt
from polybound import minismt
from polybound.engine import AnalysisConfig, analyze
from polybound.ir import (
    Atom, Polynomial, eval_formula, formula_vars, mk_and, mk_or, parse_program, substitute,
)
from polybound.minismt import parse_sexprs, solve_lp
from polybound.smt import (
    LinearConstraint,
    SmtContext,
    SolverNotFound,
    int_script,
    launch_command,
    parse_model,
    parse_reply,
    real_script,
    resolve_solver,
    script_symbols,
)

from conftest import (
    FIXTURE_NAMES,
    FIXTURES,
    SRC,
    benchmark_jobs,
    load_fixture,
    random_polynomial,
    reference_solve_lp,
    run_python,
    shadowing_directory,
)

x = Polynomial.var("x")
y = Polynomial.var("y")

FALLBACK = [sys.executable, "-m", "polybound.minismt"]
BUNDLED = SmtContext(solver=FALLBACK)


# -- script emission (golden) ---------------------------------------------------


def test_int_script_golden():
    f = mk_and([Atom(x), Atom(-x + 3)])
    assert int_script(f) == textwrap.dedent(
        """\
        (set-logic QF_NIA)
        (declare-const k00 Int)
        (assert (and (> k00 0) (> (+ (* (- 1) k00) 3) 0)))
        (check-sat)
        (get-model)
        """
    )


def test_int_script_nonlinear_powers_expand_to_products():
    script = int_script(Atom(-(x**2) + 1))
    assert "(* (- 1) k00 k00)" in script
    assert "^" not in script


def test_real_script_golden():
    constraints = [
        LinearConstraint.make({"a": Fraction(1), "b": Fraction(-1, 2)}, Fraction(1), ">="),
        LinearConstraint.make({"a": Fraction(1)}, 0, "="),
    ]
    assert real_script(constraints) == textwrap.dedent(
        """\
        (set-logic QF_NRA)
        (declare-const k00 Real)
        (declare-const k01 Real)
        (assert (>= (+ (* 1 k00) (* (- (/ 1 2)) k01) 1) 0))
        (assert (= (* 1 k00) 0))
        (check-sat)
        (get-model)
        """
    )


# SMT-LIB 2.6's simple symbols, and words of the language and of its core and
# integer theories that no script may declare
SIMPLE_SYMBOL = re.compile(r"[A-Za-z~!@$%^&*_+=<>.?/-][0-9A-Za-z~!@$%^&*_+=<>.?/-]*\Z")
BUILTINS = {"and", "or", "not", "xor", "=>", "true", "false", "ite", "distinct",
            "div", "mod", "abs", "let", "forall", "exists", "match", "par", "as", "_", "!"}
PRIMED_AND = """\
(GOAL COMPLEXITY)
(STARTTERM (FUNCTIONSYMBOLS l0))
(VAR x' and)
(RULES
  l0(x',and) -> l1(x',and)
  l1(x',and) -> l1(x'-and,and) :|: x' > 0
)
"""


def test_scripts_name_unknowns_by_simple_symbols_that_are_not_builtins():
    scripts = []

    class Recording(SmtContext):
        def sat_int(self, f):
            scripts.append(int_script(f))
            return super().sat_int(f)

        def sat_real(self, constraints):
            scripts.append(real_script(constraints))
            return super().sat_real(constraints)

    for twn, ranking in ((True, False), (False, True)):  # --no-ranking, --no-twn
        cfg = AnalysisConfig(twn_enabled=twn, ranking_enabled=ranking,
                             smt=Recording(solver=FALLBACK))
        analyze(parse_program(PRIMED_AND), cfg)
    assert {script.split("\n")[0] for script in scripts} == {
        "(set-logic QF_NIA)", "(set-logic QF_NRA)"}
    for script in scripts:
        for token in re.findall(r"[^\s()]+", script):
            assert (token.isascii() and token.isdigit()) or SIMPLE_SYMBOL.match(token), script
        declared = {cmd[1] for cmd in parse_sexprs(script) if cmd[0] == "declare-const"}
        assert declared and not declared & BUILTINS, script


# -- results through the bundled solver -----------------------------------------


def test_contradiction_unsat():
    f = mk_and([Atom(x), Atom(-x)])
    assert BUNDLED.sat_int(f).is_unsat


def test_positive_sat_with_model():
    result = BUNDLED.sat_int(Atom(x))
    assert result.is_sat
    assert result.model["x"] >= 1


def test_model_covers_all_variables():
    f = mk_or([Atom(x), Atom(y)])
    result = BUNDLED.sat_int(f)
    assert result.is_sat
    assert set(result.model) >= {"x", "y"}


def test_real_system_sat_and_exact():
    constraints = [
        LinearConstraint.make({"a": Fraction(2)}, Fraction(-1), "="),  # 2a = 1
    ]
    result = BUNDLED.sat_real(constraints)
    assert result.is_sat
    assert result.model["a"] == Fraction(1, 2)


def test_real_system_unsat():
    constraints = [
        LinearConstraint.make({"a": Fraction(1)}, Fraction(-1), ">="),  # a >= 1
        LinearConstraint.make({"a": Fraction(-1)}, Fraction(0), ">="),  # a <= 0
    ]
    assert BUNDLED.sat_real(constraints).is_unsat


def test_empty_real_system_is_sat():
    result = BUNDLED.sat_real([])
    assert result.is_sat
    assert result.model == {}


# -- model parsing ----------------------------------------------------------------


def test_parse_model_rationals_and_negatives():
    reply = parse_sexprs(
        "( (define-fun a () Real (/ 1 2)) (define-fun b () Int (- 3))"
        "  (define-fun c () Real (- (/ 7 4))) (define-fun d () Real 5.0) )"
    )
    model = parse_model(reply)
    assert model == {
        "a": Fraction(1, 2),
        "b": Fraction(-3),
        "c": Fraction(-7, 4),
        "d": Fraction(5),
    }


# -- process handling --------------------------------------------------------------


def test_timeout_yields_unknown(tmp_path):
    slow = tmp_path / "slow_solver.py"
    slow.write_text("import time\ntime.sleep(60)\n")
    ctx = SmtContext([sys.executable, str(slow)], timeout_ms=50)
    result = ctx.sat_int(Atom(x))
    assert result.status == "unknown"
    assert "timeout" in result.reason
    assert not ctx.failures  # a timeout is not a broken solver


@pytest.mark.parametrize("timeout_ms", [0, 2**31])
def test_timeout_out_of_range_is_rejected_when_built(timeout_ms):
    # subprocess.run raises OverflowError for a timeout past 2**31 - 1 ms
    with pytest.raises(ValueError, match="timeout_ms"):
        SmtContext(FALLBACK, timeout_ms=timeout_ms)


def test_missing_solver_binary_is_unknown():
    result = SmtContext(["/nonexistent/solver-binary"]).sat_int(Atom(x))
    assert result.status == "unknown"
    assert "not found" in result.reason


def test_garbage_output_is_unknown(tmp_path):
    bad = tmp_path / "bad_solver.py"
    bad.write_text("print('flagrant nonsense')\n")
    result = SmtContext([sys.executable, str(bad)]).sat_int(Atom(x))
    assert result.status == "unknown"
    assert result.reason == "no verdict in solver output"


def test_resolve_solver_explicit_missing_raises():
    with pytest.raises(SolverNotFound):
        resolve_solver("/nonexistent/z3-binary")


@pytest.fixture
def decoy_z3(tmp_path, monkeypatch) -> Path:
    """A ``z3`` first on the PATH that reads its script and answers
    ``unknown``, with ``POLYBOUND_SMT`` unset."""
    decoy = tmp_path / "bin" / "z3"
    decoy.parent.mkdir()
    decoy.write_text("#!/bin/sh\ncat > /dev/null\necho unknown\n")
    decoy.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join([str(decoy.parent), os.environ.get("PATH", "")]))
    monkeypatch.delenv("POLYBOUND_SMT", raising=False)
    return decoy


def test_resolve_solver_falls_back_to_bundled(decoy_z3):
    assert resolve_solver() == FALLBACK


def test_resolve_solver_env_override(decoy_z3, tmp_path, monkeypatch):
    fake = tmp_path / "fake-solver"
    fake.write_text("#!/bin/sh\necho unsat\n")
    fake.chmod(fake.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv("POLYBOUND_SMT", str(fake))
    assert resolve_solver() == [str(fake)]
    for z3 in (str(decoy_z3), "z3"):  # by path, and by name on the PATH
        monkeypatch.setenv("POLYBOUND_SMT", z3)
        assert resolve_solver() == [str(decoy_z3), "-in", "-smt2"]
    monkeypatch.setenv("POLYBOUND_SMT", "/nonexistent/solver")
    with pytest.raises(SolverNotFound):
        resolve_solver()


def test_a_z3_on_the_path_does_not_change_a_report(decoy_z3):
    proc = run_python(["-m", "polybound.cli", "analyze", "fixtures/nested.its",
                       "--format", "json"], cwd=FIXTURES.parent)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    del report["timings"]
    golden = Path(__file__).resolve().parent / "golden" / "nested.json"
    assert report == json.loads(golden.read_text())


def test_context_resolves_its_solver_when_built(monkeypatch):
    # a missing solver stops the library before the analysis, as in the CLI
    monkeypatch.setenv("POLYBOUND_SMT", "/nonexistent/solver")
    with pytest.raises(SolverNotFound):
        SmtContext()
    with pytest.raises(SolverNotFound):
        analyze(load_fixture("countdown"))
    assert SmtContext(solver=FALLBACK).solver == FALLBACK


def test_context_resolves_its_solver_once(monkeypatch):
    calls = []

    def counting(explicit=None):
        calls.append(explicit)
        return FALLBACK

    monkeypatch.setattr(polybound.smt, "resolve_solver", counting)
    ctx = SmtContext()
    assert ctx.solver == FALLBACK
    analyze(load_fixture("countdown"), AnalysisConfig(smt=ctx))
    assert ctx.decided > 0  # some query reached the child
    assert calls == [None]


# -- linear systems refuted in-process -------------------------------------------

INFEASIBLE = [  # phase 1 of the simplex pivots before it refutes this
    LinearConstraint.make({"a": 1}, -1, ">="),  # a >= 1
    LinearConstraint.make({"b": 1}, -1, ">="),  # b >= 1
    LinearConstraint.make({"a": -1, "b": -1}, 1, ">="),  # a + b <= 1
]


def stub_solver(tmp_path, body: str) -> list[str]:
    stub = tmp_path / "stub-solver"
    stub.write_text("#!/bin/sh\n" + body)
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    return [str(stub)]


def test_infeasible_system_starts_no_solver(tmp_path):
    marker = tmp_path / "called"
    ctx = SmtContext(stub_solver(tmp_path, f"touch {marker}\nexit 1\n"))
    result = ctx.sat_real(INFEASIBLE)
    assert result.is_unsat
    assert not marker.exists(), "the solver was started"
    # only the solver's answers count, so a broken solver still shows
    assert ctx.decided == 0 and not ctx.failures


def test_feasible_system_keeps_the_solvers_model(tmp_path):
    ctx = SmtContext(stub_solver(
        tmp_path, "echo sat\necho '((define-fun k00 () Real 7.0))'\n"))
    result = ctx.sat_real(INFEASIBLE[:1])  # a >= 1; the simplex would pick a = 1
    assert result.is_sat
    assert result.model == {"a": Fraction(7)}
    assert ctx.decided == 1


def test_expired_budget_falls_through_to_the_solver(tmp_path, monkeypatch):
    monkeypatch.setattr(minismt, "time", SimpleNamespace(monotonic=lambda: math.inf))
    ctx = SmtContext(stub_solver(tmp_path, "echo unsat\n"))
    assert ctx.sat_real(INFEASIBLE).is_unsat
    assert ctx.decided == 1  # the solver answered, not the simplex


def test_in_process_refutations_agree_with_the_bundled_child():
    asked: list[list[LinearConstraint]] = []

    class Recording(SmtContext):
        def sat_real(self, constraints):
            asked.append(list(constraints))
            return super().sat_real(constraints)

    smt = Recording(solver=FALLBACK)
    for name in FIXTURE_NAMES:
        analyze(load_fixture(name), AnalysisConfig(smt=smt))
    refuted = [c for c in asked if solve_lp(c)[0] == "unsat"]
    assert refuted and len(refuted) < len(asked)
    for constraints in refuted:
        script = real_script(constraints)
        proc = run_python(["-m", "polybound.minismt"], stdin=script)
        assert proc.stdout.split()[:1] == ["unsat"], script


# -- termination queries refuted in-process --------------------------------------

REFUTED_INT = [
    Atom(Polynomial.const(-5)),  # no DNF clause at all
    mk_or([mk_and([Atom(x), Atom(Polynomial.const(-1))]), Atom(-(x**2))]),  # sup 0 - 1 < 0
    mk_and([Atom(-(x**2) + 1), Atom(x - y**2 - 4)]),  # x pinned to 0, then sup -4 - 1
]


@pytest.mark.parametrize("f", REFUTED_INT, ids=["constant", "even-power", "forced-zero"])
def test_refuted_int_query_starts_no_solver(f, tmp_path):
    marker = tmp_path / "called"
    ctx = SmtContext(stub_solver(tmp_path, f"touch {marker}\nexit 1\n"))
    result = ctx.sat_int(f)
    assert (result.status, result.reason) == ("unsat", "refuted in-process")
    assert not marker.exists(), "the solver was started"
    assert ctx.decided == 0 and not ctx.failures


def test_unrefuted_int_query_keeps_the_solvers_model(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("searched in-process")

    # neither the simplex nor the integer search runs in the analyzer
    monkeypatch.setattr(polybound.smt, "solve_lp", forbidden)
    monkeypatch.setattr(minismt, "solve_lp", forbidden)
    monkeypatch.setattr(minismt, "_integer_hunt", forbidden)
    ctx = SmtContext(stub_solver(
        tmp_path, "echo sat\necho '((define-fun k00 () Int 7))'\n"))
    result = ctx.sat_int(mk_and([Atom(x - 2), Atom(-x + 9)]))  # the child would pick x = 3
    assert result.is_sat
    assert result.model == {"x": Fraction(7)}
    assert ctx.decided == 1


def test_int_query_with_a_rowless_first_clause_starts_no_solver(tmp_path):
    marker = tmp_path / "called"
    ctx = SmtContext(stub_solver(tmp_path, f"touch {marker}\nexit 1\n"))
    # the first clause is refuted, the second pins y to 0 and keeps no row
    result = ctx.sat_int(mk_or([Atom(-(x**2)), Atom(-(y**2) + 1), Atom(x - 2)]))
    assert (result.status, result.reason) == ("sat", "satisfied in-process")
    assert result.model == {"x": 0, "y": 0}
    assert not marker.exists(), "the solver was started"
    assert ctx.decided == 0 and not ctx.failures


def test_int_query_with_rows_left_in_its_first_unrefuted_clause_goes_to_the_solver(tmp_path):
    ctx = SmtContext(stub_solver(
        tmp_path, "echo sat\necho '((define-fun k00 () Int 7) (define-fun k01 () Int 6))'\n"))
    # a later clause would keep no row, but the child answers the first
    result = ctx.sat_int(mk_or([Atom(x - 2), Atom(-(y**2) + 1)]))
    assert result.model == {"x": 7, "y": 6}
    assert ctx.decided == 1


def test_int_query_past_the_dnf_cap_goes_to_the_solver(tmp_path):
    # 2^11 clauses, each refuted by its last atom
    split = [mk_or([Atom(Polynomial.var(f"x{i}")), Atom(-Polynomial.var(f"x{i}"))])
             for i in range(11)]
    ctx = SmtContext(stub_solver(tmp_path, "echo unsat\n"))
    assert ctx.sat_int(mk_and(split + [Atom(-(x**2))])).is_unsat
    assert ctx.decided == 1


def test_int_refutations_agree_with_the_bundled_child():
    answered = []

    class Recording(SmtContext):
        def sat_int(self, f):
            result = super().sat_int(f)
            answered.append((f, result))
            return result

    smt = Recording(solver=FALLBACK)
    jobs = benchmark_jobs("fixtures", 1)  # the same at every seed
    jobs += benchmark_jobs("twn_loops", 1) + benchmark_jobs("twn_loops", 7)
    for job in jobs:
        cfg = AnalysisConfig(twn_enabled=job.twn, ranking_enabled=job.ranking, smt=smt)
        analyze(parse_program(job.text), cfg)
    in_process = [(f, r) for f, r in answered if r.reason.endswith("in-process")]
    assert {result.status for _, result in in_process} == {"sat", "unsat"}
    assert len(in_process) < len(answered)
    for f, result in in_process:
        proc = run_python(["-m", "polybound.minismt"], stdin=int_script(f))
        assert_bundled_answer(f, result.status, result.model, proc.stdout)


def assert_bundled_answer(f, status: str, model: dict, reply: str):
    """``reply``, the bundled procedure's to ``f``, is ``status`` with
    ``model``: both unsat, or both sat at the all-zero state, where ``f``
    holds."""
    replied, *rest = parse_sexprs(reply)
    assert replied == status, int_script(f)
    if status == "sat":
        zero = dict.fromkeys(formula_vars(f), 0)
        assert named(parse_model(rest), formula_vars(f)) == model == zero, int_script(f)
        assert eval_formula(f, zero), f


@st.composite
def int_formulas(draw):
    """``And``/``Or`` nests, up to two deep, of atoms over x and y: random
    polynomials, constants, and negative squares that the search-free rules
    bound or pin to zero."""
    rng = random.Random(draw(st.integers(0, 2**32)))

    def atom() -> Atom:
        kind = rng.choice(["poly", "poly", "const", "square"])
        if kind == "const":
            return Atom(Polynomial.const(rng.randint(-3, 2)))
        p = random_polynomial(rng, ["x", "y"], max_degree=2, max_coeff=4)
        if kind == "square":
            p = Polynomial.const(rng.randint(-2, 1)) - Polynomial.var(rng.choice("xy")) ** 2
        return Atom(p)

    outer, inner = rng.choice([(mk_or, mk_and), (mk_and, mk_or)])
    return outer([inner([atom() for _ in range(rng.randint(1, 3))])
                  for _ in range(rng.randint(1, 3))])


@settings(max_examples=300)
@given(int_formulas())
def test_in_process_int_refutation_implies_the_bundled_unsat(f):
    result = SmtContext._int_presolved(f)
    if result is not None:
        out = io.StringIO()
        minismt.run(int_script(f), out)
        # with no model, ``sat_int`` gives every variable 0
        assert_bundled_answer(f, result.status, dict.fromkeys(formula_vars(f), 0),
                              out.getvalue())
    if result is not None and result.is_unsat:
        # the child runs the same presolve, so also check the semantics
        box = range(-3, 4)
        assert not any(eval_formula(f, {"x": a, "y": b}) for a in box for b in box), f


# -- constants no script can hold -------------------------------------------------


@pytest.mark.parametrize("c", [10**4999, 10**5000 - 1], ids=["power-of-ten", "nines"])
def test_unwritable_constant_is_unknown(c, tmp_path):
    marker = tmp_path / "called"
    ctx = SmtContext(stub_solver(tmp_path, f"touch {marker}\necho unsat\n"))
    int_result = ctx.sat_int(Atom(x.scale(c)))
    real_result = ctx.sat_real([LinearConstraint.make({"a": c}, -1, ">=")])
    for result in (int_result, real_result):
        assert result.status == "unknown"
        assert "constant of 5000 digits" in result.reason
    assert not marker.exists(), "the solver was started"
    assert ctx.decided == 0 and not ctx.failures


# -- the bundled simplex -----------------------------------------------------------


def test_simplex_feasible_point_satisfies_rows():
    constraints = [
        LinearConstraint.make({"a": 1, "b": 1}, -2, ">="),  # a + b >= 2
        LinearConstraint.make({"a": -1}, 5, ">="),  # a <= 5
        LinearConstraint.make({"b": -1}, 0, ">="),  # b <= 0
        LinearConstraint.make({"a": 1, "b": -1}, 0, "="),  # a = b
    ]
    status, point = solve_lp(constraints)
    assert status == "unsat"  # a = b and b <= 0 contradict a + b >= 2

    status, point = solve_lp(constraints[:3])
    assert status == "sat"
    a, b = point["a"], point["b"]
    assert a + b >= 2 and a <= 5 and b <= 0


def test_a_strict_row_cannot_be_built():
    # the simplex solves = and >= rows only, so a > row never passes as >=
    with pytest.raises(ValueError, match="unknown relation '>'"):
        LinearConstraint.make({"a": 1}, 0, ">")


def test_simplex_negative_solutions_reachable():
    constraints = [
        LinearConstraint.make({"a": 1}, 3, "="),  # a = -3
    ]
    status, point = solve_lp(constraints)
    assert status == "sat"
    assert point["a"] == -3


def test_simplex_ratio_ties_go_to_the_lowest_basic_column():
    # the point is one of several feasible vertices; ties broken toward the
    # highest basic column instead would end at a = 0, b = 2
    constraints = [
        LinearConstraint.make({"a": 3, "b": 2}, -4, ">="),
        LinearConstraint.make({"b": 2}, 0, ">="),
        LinearConstraint.make({"a": 1}, 0, ">="),
        LinearConstraint.make({"a": 2, "b": 2}, 0, ">="),
    ]
    assert solve_lp(constraints) == ("sat", {"a": Fraction(4, 3), "b": 0})


def test_simplex_past_its_deadline_raises_before_pivoting():
    constraints = [LinearConstraint.make({"a": 1}, -1, ">=")]  # a >= 1 takes a pivot
    with pytest.raises(TimeoutError):
        solve_lp(constraints, time.monotonic() - 1)
    assert solve_lp(constraints) == ("sat", {"a": 1})


SMALL_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
POSITIVE_FRACTIONS = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
# rows through the origin make degenerate vertices, where the ratio test ties
CONSTANTS = st.one_of(st.just(Fraction(0)), SMALL_FRACTIONS)


@st.composite
def lp_systems(draw) -> list[LinearConstraint]:
    """1-4 variables and 1-8 rows of = and >=; after the first row, a row
    may repeat an earlier one scaled and loosened (redundant) or negate it
    (infeasible: ``k*p + delta <= 0``, ``delta > 0``, against ``p >= 0``)."""
    names = ["a", "b", "c", "d"][: draw(st.integers(1, 4))]
    rows: list[LinearConstraint] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "fresh", "redundant", "infeasible"]))
        if kind == "fresh" or not rows:
            coeffs = {v: draw(SMALL_FRACTIONS) for v in names}
            rel = draw(st.sampled_from(["=", ">="]))
            rows.append(LinearConstraint.make(coeffs, draw(CONSTANTS), rel))
            continue
        base, k = draw(st.sampled_from(rows)), draw(POSITIVE_FRACTIONS)
        if kind == "redundant":
            delta = 0 if base.rel == "=" else draw(SMALL_FRACTIONS.map(abs))
            const = k * base.const + delta
            rows.append(LinearConstraint.make({v: k * c for v, c in base.coeffs}, const,
                                              base.rel))
        else:
            const = -k * base.const - draw(POSITIVE_FRACTIONS)
            rows.append(LinearConstraint.make({v: -k * c for v, c in base.coeffs}, const, ">="))
    return rows


def same_answer(constraints) -> bool:
    """Whether solve_lp and the Fraction reference give one answer, down to
    the order of the point's entries."""
    new, old = solve_lp(constraints), reference_solve_lp(constraints)
    return new[0] == old[0] and list(new[1].items()) == list(old[1].items())


@settings(max_examples=400)
@given(lp_systems())
def test_simplex_matches_the_fraction_reference(constraints):
    assert same_answer(constraints)


def test_simplex_matches_the_fraction_reference_on_fixture_systems(monkeypatch):
    asked: list[list[LinearConstraint]] = []

    def recording(constraints, deadline=None):
        asked.append(list(constraints))
        return solve_lp(constraints, deadline)

    monkeypatch.setattr(polybound.smt, "solve_lp", recording)
    for name in FIXTURE_NAMES:
        analyze(load_fixture(name), AnalysisConfig(smt=SmtContext(solver=FALLBACK)))
    # sat_real's refutations, 16 of them, with both answers
    assert len(asked) > 10
    assert {solve_lp(c)[0] for c in asked} == {"sat", "unsat"}
    for constraints in asked:
        assert same_answer(constraints), constraints


# -- the bundled solver reads exactly what the analyzer writes ----------------------


def read_back(script: str, read) -> list:
    """The assertions of ``script``, read by ``read`` over its declared names."""
    commands = parse_sexprs(script)
    declared = {cmd[1] for cmd in commands if cmd[0] == "declare-const"}
    return [read(cmd[1], declared) for cmd in commands if cmd[0] == "assert"]


@settings(max_examples=200)
@given(int_formulas())
def test_int_script_reads_back_as_its_formula(f):
    symbol = script_symbols(formula_vars(f))
    renamed = substitute(f, {v: Polynomial.var(s) for v, s in symbol.items()})
    assert read_back(int_script(f), minismt.int_formula) == [renamed]


@settings(max_examples=200)
@given(lp_systems())
def test_real_script_reads_back_as_its_rows(rows):
    # the symbols sort as the names do, so each row keeps its order of terms
    symbol = script_symbols(v for r in rows for v, _ in r.coeffs)
    renamed = [LinearConstraint.make({symbol[v]: k for v, k in r.coeffs}, r.const, r.rel)
               for r in rows]
    assert read_back(real_script(rows), minismt.real_row) == renamed


def test_real_script_without_constants_is_read_as_real():
    # no declaration names the sort, so only the logic line can
    ctx = SmtContext(solver=FALLBACK)
    assert ctx.sat_real([LinearConstraint.make({}, 5, ">=")]).is_sat
    assert ctx.decided == 1  # feasible, so the child answered


LOGICS = {"Int": "QF_NIA", "Real": "QF_NRA"}


def bundled(*assertions: str, names: str = "x y", sort: str = "Int") -> list[str]:
    """The bundled solver's reply lines to a script declaring ``names``."""
    script = f"(set-logic {LOGICS[sort]})\n"
    script += "".join(f"(declare-const {v} {sort})\n" for v in names.split())
    script += "".join(f"(assert {a})\n" for a in assertions)
    out = io.StringIO()
    minismt.run(script + "(check-sat)\n(get-model)\n", out)
    return out.getvalue().splitlines()


def test_integer_search_rejects_a_fractional_row():
    # rows come from atoms, which are integral; a fraction is never truncated
    with pytest.raises(ValueError, match="non-integral row"):
        minismt._integer_hunt([x.scale(Fraction(1, 2)) - 1], {})


def test_bundled_int_disjunction_has_model():
    f = mk_and([mk_or([Atom(x - 5), Atom(-y - 8)]), Atom(x - y + 1)])
    result = procedure_reply(int_script(f))
    assert result.is_sat and eval_formula(f, named(result.model, formula_vars(f)))


@pytest.mark.parametrize("assertion", ["(or (> x 1) (< x 0))", "(>= (+ (* x x) (- 1)) 0)"])
def test_bundled_real_beyond_conjunctions_of_affine_rows_is_unknown(assertion):
    assert bundled(assertion, sort="Real")[0] == "unknown"


def test_bundled_dnf_cap_is_unknown():
    names = [f"x{i}" for i in range(11)]
    split = [f"(or (> {v} 0) (> (- {v}) 0))" for v in names]  # 2^11 clauses
    assert bundled(*split, names=" ".join(names))[0] == "unknown"


def int_query(*lines: str) -> str:
    return "(set-logic QF_NIA)\n(declare-const x Int)\n" + "".join(
        line + "\n" for line in lines) + "(check-sat)\n"


@pytest.mark.parametrize("script", [
    int_query("(assert ())"),
    int_query("(assert (> (/ x) 0))"),
    int_query("(assert (> (/ x x) 0))"),
    "(set-logic QF_NIA)\n(declare-const x)\n(check-sat)\n",
    int_query("(assert " + "(and " * 900 + "(> x 0)" + ")" * 900 + ")"),
    int_query("(assert (> x " + "9" * 5000 + "))"),
    # forms no script of the analyzer holds
    int_query("(assert (not (> x 3)))"),
    int_query("(assert (= x 2))"),
    int_query("(assert false)"),
    int_query("(assert (> (- x 1) 0))"),
    "(set-logic QF_NIA)\n(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n",
    "(set-logic QF_NRA)\n(declare-const x Real)\n(assert (< x 1))\n(check-sat)\n",
    "(set-logic QF_NRA)\n(declare-const x Real)\n(assert (>= (+ x 1.5) 0))\n(check-sat)\n",
    "(set-logic QF_NRA)\n(declare-const x Real)\n"
    "(assert (and (>= x 0) (>= (- x) 0)))\n(check-sat)\n",
    "(set-option :produce-models true)\n" + int_query("(assert (> x 0))"),
    int_query("(assert (> x 0))", "(exit)"),
    "; note\n" + int_query("(assert (> x 0))"),
    "(set-logic QF_NIA)\n(declare-const |a b| Int)\n(assert (> |a b| 0))\n(check-sat)\n",
    # the logic and the sorts
    "(declare-const x Int)\n(assert (> x 0))\n(check-sat)\n",
    "(set-logic QF_LIA)\n(declare-const x Int)\n(assert (> x 0))\n(check-sat)\n",
    "(set-logic QF_NIA)\n(declare-const x Real)\n(assert (> x 0))\n(check-sat)\n",
], ids=["empty-assertion", "unary-division", "division-by-a-variable",
        "declaration-without-sort", "nested-too-deep", "numeral-past-the-digit-limit",
        "not", "int-equality", "false", "n-ary-minus", "declare-fun", "real-strict",
        "decimal", "real-and", "set-option", "exit", "comment", "quoted-symbol",
        "no-logic", "other-logic",
        "sort-against-the-logic"])
def test_bundled_malformed_input_is_unknown(script):
    out = io.StringIO()
    minismt.run(script, out)
    assert out.getvalue() == "unknown\n"
    proc = run_python(["-m", "polybound.minismt"], script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "unknown\n", "")


# -- the bundled solver's process, end to end -------------------------------------


def child_reply(script: str) -> tuple[str, dict[str, Fraction]]:
    proc = run_python(["-m", "polybound.minismt"], script)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    verdict, _, rest = proc.stdout.partition("\n")
    return verdict, parse_model(parse_sexprs(rest))


def test_bundled_process_answers_an_int_script():
    verdict, model = child_reply(int_script(mk_and([Atom(x - 2), Atom(-x + 4)])))
    assert (verdict, model) == ("sat", {"k00": 3})


def test_bundled_process_writes_a_model_larger_than_a_pipe_buffer():
    names = [f"c{i}" for i in range(3000)]
    script = "(set-logic QF_NRA)\n" + "".join(f"(declare-const {n} Real)\n" for n in names)
    script += "(assert (>= (+ (* 1 c0) (- 2)) 0))\n(check-sat)\n(get-model)\n"
    proc = run_python(["-m", "polybound.minismt"], script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout) > 64 * 1024
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["sat", "("] and lines[-1] == ")"
    assert [line.split()[1] for line in lines[2:-1]] == sorted(names)
    assert parse_model(parse_sexprs("\n".join(lines[1:])))["c0"] > 1


@pytest.mark.parametrize("script, reply", [
    (real_script([LinearConstraint.make({"x": 1}, -2, ">="),  # x >= 2
                  LinearConstraint.make({"x": -1}, 0, ">=")]),  # x <= 0
     'unsat\n(error "no model")\n'),
    ("(set-logic QF_NIA)\n(declare-const x Int)\n(assert (> x", "unknown\n"),
], ids=["unsat", "unparseable"])
def test_bundled_process_writes_its_whole_short_answer(script, reply):
    proc = run_python(["-m", "polybound.minismt"], script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, reply, "")


def test_bundled_process_answers_a_real_script():
    rows = [
        LinearConstraint.make({"a": 1, "b": 1}, -2, ">="),  # a + b >= 2
        LinearConstraint.make({"a": 2, "b": -1}, 0, "="),  # 2a = b
        LinearConstraint.make({"b": -1}, 5, ">="),  # b <= 5
    ]
    verdict, model = child_reply(real_script(rows))
    model = named(model, "ab")
    assert verdict == "sat"
    assert 2 * model["a"] == model["b"] and model["a"] + model["b"] >= 2 and model["b"] <= 5
    assert child_reply(real_script(rows + [LinearConstraint.make({"a": -1}, 0, ">=")])) == (
        "unsat", {}
    )


# -- how a query starts the bundled solver --------------------------------------


def named(model: dict, names) -> dict:
    """``model``, a reply's to a script over ``names``, by those names."""
    return {v: model[s] for v, s in script_symbols(names).items() if s in model}


def procedure_reply(script: str):
    """The bundled procedure's reply to ``script``, answered in-process."""
    out = io.StringIO()
    minismt.run(script, out)
    return parse_reply(out.getvalue())


def test_launched_child_replies_to_every_workload_query_as_the_procedure_does(monkeypatch):
    """Each query the workloads send the bundled child at seeds 1 and 7 gets
    the reply text ``minismt.run`` writes in-process.  The child's reply is
    recorded where ``_run_solver`` starts it, so no query starts a second one."""
    run = subprocess.run
    replies = []

    def recording(*args, **kwargs):
        proc = run(*args, **kwargs)
        replies.append((kwargs["input"], proc.stdout))
        return proc

    monkeypatch.setattr(polybound.smt, "subprocess", SimpleNamespace(
        run=recording, TimeoutExpired=subprocess.TimeoutExpired))
    smt = SmtContext(solver=FALLBACK)
    jobs = benchmark_jobs("fixtures", 1)  # the same at every seed
    for workload in ("ranking_wide", "twn_loops"):
        jobs += benchmark_jobs(workload, 1) + benchmark_jobs(workload, 7)
    for job in jobs:
        cfg = AnalysisConfig(twn_enabled=job.twn, ranking_enabled=job.ranking, smt=smt)
        analyze(parse_program(job.text), cfg)
    assert replies and smt.decided == len(replies) and not smt.failures
    for script, reply in replies:
        out = io.StringIO()
        minismt.run(script, out)
        assert out.getvalue() == reply, script


def test_bundled_query_ignores_a_shadowing_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(shadowing_directory(tmp_path))
    f = mk_and([Atom(x - 2), Atom(-x + 4)])
    result = BUNDLED.sat_int(f)
    expected = procedure_reply(int_script(f))
    assert (result.status, result.model) == (expected.status, named(expected.model, "x")) == (
        "sat", {"x": 3})


def test_bundled_query_keeps_the_parents_limit_on_integer_strings():
    c = 10**4999  # 5,000 digits, past the default limit of 4,300
    rows = [LinearConstraint.make({"a": 1}, -c, ">=")]  # a >= c
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(6000)
    try:
        result = BUNDLED.sat_real(rows)
        expected = procedure_reply(real_script(rows))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (result.status, result.model) == (expected.status, named(expected.model, "a")) == (
        "sat", {"a": c})


def test_bundled_query_from_a_no_bytecode_parent_writes_no_bytecode(tmp_path):
    # a copy without bytecode, which the parent imports and so the child too
    root = tmp_path / "src"
    shutil.copytree(SRC / "polybound", root / "polybound",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = (
        f"import sys; sys.path.insert(0, {str(root)!r}); "
        "from polybound.ir import Atom, Polynomial; from polybound import smt; "
        "f = Atom(Polynomial.var('x') - 2); "
        "print(smt.PACKAGE_ROOT, smt.SmtContext(smt.BUNDLED).sat_int(f).status)"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, f"{root} sat\n"), proc.stderr
    assert not list(root.rglob("__pycache__"))
