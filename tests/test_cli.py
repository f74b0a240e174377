import json
import sys
import time
from pathlib import Path

import pytest

from polybound.cli import main

from conftest import FIXTURES, FIXTURE_NAMES, run_python, shadowing_directory

SCHEMA_PATH = (
    Path(__file__).resolve().parent.parent / "src" / "polybound" / "report_schema.json"
)


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.its")


def test_analyze_text(capsys):
    assert main(["analyze", fixture("nested")]) == 0
    out = capsys.readouterr().out
    assert "RB(t0) = 1" in out
    assert "Asymptotic class: O(n^6)" in out
    assert "SB(t0,x4) = x4" in out


def test_analyze_no_twn_exits_two(capsys):
    assert main(["analyze", fixture("nested"), "--no-twn"]) == 2
    out = capsys.readouterr().out
    assert "RB(t3) = ω" in out


def test_analyze_no_ranking_uses_twn(capsys):
    assert main(["analyze", fixture("countdown"), "--no-ranking"]) == 0
    out = capsys.readouterr().out
    assert "[twn]" in out


def test_json_report_validates_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    for name in FIXTURE_NAMES:
        code = main(["analyze", fixture(name), "--format", "json"])
        assert code in (0, 2)
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema)
        assert report["program"]["file"].endswith(f"{name}.its")


def test_simulate_reference_counts(capsys):
    code = main(
        ["simulate", fixture("nested"), "--state", "x1=7,x2=5,x3=1,x4=1,x5=3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "runtime: 5" in out
    assert "t3: 2" in out


def test_simulate_divergence(capsys):
    code = main(["simulate", fixture("diverge"), "--state", "x=1", "--max-steps", "50"])
    assert code == 0
    assert "exceeded" in capsys.readouterr().out


def test_simulate_self_squaring_stops_on_value_size(tmp_path, capsys):
    path = tmp_path / "self_squaring.its"
    path.write_text(
        "(GOAL COMPLEXITY)\n(STARTTERM (FUNCTIONSYMBOLS l0))\n(VAR x)\n"
        "(RULES\n  l0(x) -> l1(x)\n  l1(x) -> l1(x*x-1) :|: x >= -2\n)\n"
    )
    started = time.perf_counter()
    assert main(["simulate", str(path), "--state", "x=2"]) == 0
    elapsed = time.perf_counter() - started
    assert capsys.readouterr().out.splitlines()[0] == "runtime: exceeded (size, cap 65536 bits)"
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_closed_form_output(capsys):
    assert main(["closed-form", fixture("geo_race"), "--transition", "t1"]) == 0
    out = capsys.readouterr().out
    assert "x1(n) = x1 * 4^n" in out
    assert "x2(n) = (-x3^3 + x2) * 9^n + x3^3" in out
    assert "x3(n) = x3" in out
    assert "valid from n = 0" in out


def test_closed_form_of_a_doubled_loop(capsys):
    # x := -2*x has a negative self-coefficient, so the closed form is of x := 4*x
    assert main(["closed-form", fixture("flip_sign"), "--transition", "t1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x(n) = x * 4^n\nvalid from n = 0\n"
    assert "negative self-coefficients" in captured.err


def test_closed_form_rejects_non_self_loop(capsys):
    assert main(["closed-form", fixture("nested"), "--transition", "t1"]) == 2
    assert "not analyzable" in capsys.readouterr().err


# Its closed form has products of up to 44,100 terms, past the cap: without
# the cap, building it took 6.5 s and the whole analysis did not end.  Under
# caps/, because the soundness test's exhaustive runs of every tests/data
# program would take seconds to check an ω.
BLOWUP = str(Path(__file__).resolve().parent / "data" / "caps" / "closed_form_blowup.its")
PAST_THE_CAP = "product of up to 44100 terms, above the cap of 30000"


def test_closed_form_past_its_cap_is_omega():
    proc = run_python(["-m", "polybound.cli", "analyze", BLOWUP], timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Overall runtime bound: ω" in proc.stdout
    assert f"Loop t1: unsupported (closed form too large: {PAST_THE_CAP})" in proc.stdout


# The solver's model x = 0, y = 1 stabilizes only where n * 2^(n-1) outweighs
# 10^7 * 2^n, past n = 2 * 10^7, so a scan up to the dominance search's cap of
# 10^6 ran for about an hour before giving up.
WITNESS_SCAN = str(Path(__file__).resolve().parent / "data" / "caps" / "witness_scan.its")


def test_witness_scan_stops_at_its_cap():
    proc = run_python(["-m", "polybound.cli", "analyze", WITNESS_SCAN], timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Loop t1: unknown (stabilization search cap)" in proc.stdout


def test_closed_form_command_past_the_cap_is_not_analyzable(capsys):
    assert main(["closed-form", BLOWUP, "--transition", "t1"]) == 2
    assert capsys.readouterr().err == f"not analyzable: {PAST_THE_CAP}\n"


def test_unknown_transition_is_input_error(capsys):
    assert main(["closed-form", fixture("nested"), "--transition", "t9"]) == 3


def test_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.its"
    bad.write_text("(GOAL COMPLEXITY) (RULES l0(x) -> l1(x))")
    assert main(["analyze", str(bad)]) == 3
    assert "input error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/prog.its"]) == 3


def test_explicit_missing_solver_exit_code(capsys):
    code = main(["analyze", fixture("countdown"), "--smt-solver", "/nonexistent/z3"])
    assert code == 4
    assert "solver" in capsys.readouterr().err


def test_bad_state_string(capsys):
    assert main(["simulate", fixture("countdown"), "--state", "q=1"]) == 3


def test_state_naming_a_variable_twice_is_input_error(capsys):
    assert main(["simulate", fixture("countdown"), "--state", "x=1,x=5"]) == 3
    assert "variable named twice in state: x" in capsys.readouterr().err


def test_unknown_option_is_input_error(capsys):
    assert main(["analyze", fixture("countdown"), "--mprf-depth", "4"]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["analyze", "--help"]) == 0


def test_deep_nesting_is_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.its"
    deep.write_text(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x)  l1(x) -> l1(x-1) :|: "
        + "(" * 3000 + "x > 0" + ")" * 3000 + ")"
    )
    assert main(["analyze", str(deep)]) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value", [
    ("simulate", "--max-steps", "-1"),
    ("analyze", "--smt-timeout", "0"),
    ("analyze", "--smt-timeout", "-5"),
    ("analyze", "--smt-timeout", "ten"),
    ("analyze", "--smt-timeout", "2147483648"),
])
def test_out_of_range_option_is_input_error(command, option, value, capsys):
    args = [command, fixture("countdown"), f"{option}={value}"]
    assert main(args + (["--state", "x=1"] if command == "simulate" else [])) == 3
    err = capsys.readouterr().err
    assert f"argument {option}: " in err
    assert "internal error" not in err


def test_module_entry_point_runs_the_cli():
    proc = run_python(["-m", "polybound.cli", "analyze", fixture("countdown")])
    assert proc.returncode == 0, proc.stderr
    assert "RB(" in proc.stdout


def test_script_entry_point_ignores_a_shadowing_working_directory(tmp_path, capsys):
    # run as the console script runs: its own directory, not the working
    # directory, heads the parent's path; the solver child must not import
    # from the working directory either
    script = tmp_path / "bin" / "polybound"
    script.parent.mkdir()
    script.write_text("import sys\nfrom polybound.cli import main\nsys.exit(main())\n")
    cwd = shadowing_directory(tmp_path / "work")
    proc = run_python([str(script), "analyze", fixture("countdown")], cwd=cwd)
    assert main(["analyze", fixture("countdown")]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_broken_solver_exits_four(tmp_path, capsys):
    stub = tmp_path / "stub-solver"
    stub.write_text("#!/bin/sh\necho nonsense\n")
    stub.chmod(0o755)
    assert main(["analyze", fixture("countdown"), "--smt-solver", str(stub)]) == 4
    assert "solver error: " in capsys.readouterr().err
    # some of its ranking systems are refuted in-process, the rest fail
    assert main(["analyze", fixture("nested"), "--smt-solver", str(stub)]) == 4
    assert "solver error: " in capsys.readouterr().err
    # its termination query and ranking systems are all refuted in-process,
    # so no solver is started and the bound decides the exit code
    assert main(["analyze", fixture("nonlinear_loop"), "--smt-solver", str(stub)]) == 0
    assert "solver error: " not in capsys.readouterr().err
    # no query asked, so nothing failed
    assert main(["analyze", fixture("straight_line"), "--smt-solver", str(stub)]) == 0


def test_oversized_power_is_input_error(tmp_path, capsys):
    power = tmp_path / "power.its"
    power.write_text(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x y z w)"
        "(RULES l0(x,y,z,w) -> l1(x,y,z,w)"
        "  l1(x,y,z,w) -> l1(x-1,y,z,w) :|: (x+y+z+w)^40 > 0)"
    )
    started = time.perf_counter()
    assert main(["analyze", str(power)]) == 3
    assert time.perf_counter() - started < 1.0
    assert "input error: " in capsys.readouterr().err


@pytest.mark.parametrize("guard", ["x > 9{nines}", "x^1{nines} > 0"])
def test_oversized_integer_literal_is_input_error(guard, tmp_path, capsys):
    # 5,000 digits, more than the interpreter converts to an int
    program = tmp_path / "literal.its"
    program.write_text(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x)"
        f"  l1(x) -> l1(x-1) :|: {guard.format(nines='9' * 4999)})"
    )
    assert main(["analyze", str(program)]) == 3
    assert "integer literal of 5000 digits is too long" in capsys.readouterr().err


def test_numerals_are_decimal_digits(tmp_path, capsys):
    def analyze_guard(bound: str):
        program = tmp_path / "digits.its"
        program.write_text(
            "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
            f"(RULES l0(x) -> l1(x)  l1(x) -> l1(x-1) :|: x > {bound})",
            encoding="utf-8",
        )
        return main(["analyze", str(program)]), capsys.readouterr()

    code, captured = analyze_guard("²")  # a digit to str.isdigit, not a decimal one
    assert code == 3
    assert "input error: " in captured.err
    assert "unexpected character '²'" in captured.err
    arabic, decimal = analyze_guard("٣"), analyze_guard("3")  # Arabic-Indic three
    assert arabic == decimal and decimal[0] == 0


def nines(digits: int) -> str:
    return "9" * digits


@pytest.mark.parametrize("rule", [
    # literals longer than the cap
    f"l1(x) -> l1(x-1) :|: x > {nines(4000)}*{nines(4000)}",
    f"l1(x) -> l1(x-1) :|: x > ({nines(4000)})^2",
    # a power and nested powers of literals within the cap, checked before
    # the next power builds on them
    f"l1(x) -> l1(x-1) :|: x > ({nines(600)})^2",
    "l1(x) -> l1(x-1) :|: x > ((((9^64)^64)^64)^64)^64",
    # a product and sums, caught on a side of the guard relation and on the
    # finished update
    f"l1(x) -> l1(x-1) :|: x > {nines(999)}*{nines(999)}",
    f"l1(x) -> l1(x-1) :|: x > {nines(1000)}+{nines(1000)}",
    f"l1(x) -> l1(x-{nines(1000)}-{nines(1000)}) :|: x > 0",
])
def test_constant_past_the_cap_is_input_error(rule, tmp_path, capsys):
    program = tmp_path / "constant.its"
    program.write_text(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        f"(RULES l0(x) -> l1(x)  {rule})"
    )
    started = time.perf_counter()
    assert main(["analyze", str(program)]) == 3
    assert time.perf_counter() - started < 1.0
    assert "digits" in capsys.readouterr().err


def test_constant_the_analysis_builds_past_the_string_limit_is_unknown(tmp_path, capsys):
    # within the parser's cap, but the closed form of x has base (10^999-1)^5,
    # 4,995 digits, which no SMT-LIB script can spell under str()'s limit
    program = tmp_path / "power.its"
    program.write_text(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x y)"
        f"(RULES l0(x,y) -> l1(x,y)  l1(x,y) -> l1(x+y^5, {nines(999)}*y) :|: x < 0)"
    )
    assert main(["analyze", str(program)]) in (0, 2)
    out, err = capsys.readouterr()
    assert "internal error" not in err
    assert "Loop t1: unknown (constant of 4995 digits too long to write" in out


ZERO_MODEL_SOLVER = """#!{python}
import re, sys

script = sys.stdin.read()
if "QF_NRA" not in script:
    print("unknown")
    sys.exit()
print("sat")
print("(")
for name in re.findall(r"\\(declare-const (\\S+) Real\\)", script):
    print(f"  (define-fun {{name}} () Real 0.0)")
print(")")
"""


def test_wrong_solver_model_is_internal_error(tmp_path, monkeypatch, capsys):
    # every ranking system is "sat" with the all-zero model, which is no
    # ranking function: the exact check must stop the analysis
    stub = tmp_path / "zero-model-solver"
    stub.write_text(ZERO_MODEL_SOLVER.format(python=sys.executable))
    stub.chmod(0o755)
    monkeypatch.setenv("POLYBOUND_SMT", str(stub))
    assert main(["analyze", fixture("countdown")]) == 4
    out, err = capsys.readouterr()
    assert "internal error: t1: drop on clause 0 leaves -1 under multipliers [0] for 1 rows" in err
    assert "Overall runtime bound" not in out
