"""Command-line interface: analyze, simulate, closed-form.

Exit codes: 0 analysis succeeded with a finite overall bound, 2 analysis
succeeded but the overall bound is infinite (or the requested loop is not
analyzable), 3 input error, 4 internal or solver-environment error.
All diagnostics go to standard error; reports go to standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import bound_str, is_omega
from .engine import AnalysisConfig, AnalysisResult, analyze
from .ir import ParseError, Program, ProgramError, parse_program
from .polyexp import ClosedFormTooLarge
from .ranking import RankingValidationError
from .sim import VALUE_BITS_CAP, exhaustive_run
from .smt import MAX_TIMEOUT_MS, SmtContext, SolverNotFound, resolve_solver
from .twn import TwnRejection, closed_form, twn_check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polybound",
        description="Runtime-complexity analysis for integer transition systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="compute global runtime and size bounds")
    pa.add_argument("file")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--no-twn", action="store_true", help="disable closed-form loop analysis")
    pa.add_argument("--no-ranking", action="store_true", help="disable ranking functions")
    pa.add_argument("--smt-solver", metavar="PATH", default=None)
    pa.add_argument("--smt-timeout", metavar="MS", type=_int_in(1, MAX_TIMEOUT_MS), default=5000)

    ps = sub.add_parser("simulate", help="exhaustively explore from a concrete state")
    ps.add_argument("file")
    ps.add_argument("--state", required=True, help='e.g. "x1=7,x2=5"')
    ps.add_argument("--max-steps", type=_int_in(0), default=10000)

    pc = sub.add_parser("closed-form", help="print the closed form of a self-loop")
    pc.add_argument("file")
    pc.add_argument("--transition", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; 2 means ω here
        return 3 if exc.code else 0
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_closed_form(args)
    except (ParseError, ProgramError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except SolverNotFound as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except RankingValidationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # the CLI contract is exit codes, not tracebacks
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def _int_in(low: int, high: int | None = None):
    """An argparse type for integers from *low* up to *high* (no upper limit
    when None); a usage error (exit 3) otherwise."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _load(path: str) -> Program:
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read())


def _cmd_analyze(args) -> int:
    parse_start = time.perf_counter()
    program = _load(args.file)
    parse_s = time.perf_counter() - parse_start
    solver = resolve_solver(args.smt_solver)  # raises for explicit missing paths
    cfg = AnalysisConfig(
        twn_enabled=not args.no_twn,
        ranking_enabled=not args.no_ranking,
        smt=SmtContext(solver=solver, timeout_ms=args.smt_timeout),
    )
    result = analyze(program, cfg)
    result.timings["parse_s"] = parse_s
    for note in result.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    if cfg.smt.failures and not cfg.smt.decided:
        print(
            f"solver error: {' '.join(solver)}: {cfg.smt.failures[0]} "
            f"({len(cfg.smt.failures)} queries failed, none decided)",
            file=sys.stderr,
        )
        return 4
    if args.format == "json":
        print(json.dumps(report_json(result, args.file), indent=2))
    else:
        print(report_text(result), end="")
    return 2 if is_omega(result.overall) else 0


def report_json(result: AnalysisResult, filename: str) -> dict:
    p = result.program
    return {
        "schema_version": 1,
        "program": {
            "file": filename,
            "variables": list(p.vars),
            "locations": sorted(p.locs),
            "initial": p.init,
        },
        "transitions": [
            {
                "id": t.tid,
                "source": t.src,
                "target": t.tgt,
                "runtime_bound": bound_str(result.rb[t.tid]),
                "provenance": result.provenance[t.tid],
                "size_bounds": {
                    v: bound_str(result.sb[(t.tid, v)]) for v in p.vars
                },
            }
            for t in p.transitions
        ],
        "overall_bound": bound_str(result.overall),
        "asymptotic_class": str(result.asymptotic),
        "twn": result.twn_verdicts,
        "diagnostics": result.diagnostics,
        "timings": result.timings,
    }


def report_text(result: AnalysisResult) -> str:
    p = result.program
    lines = ["Runtime bounds:"]
    for t in p.transitions:
        lines.append(
            f"  RB({t.tid}) = {bound_str(result.rb[t.tid])}"
            f"   [{result.provenance[t.tid]}]"
        )
    lines.append("Size bounds:")
    for t in p.transitions:
        for v in p.vars:
            lines.append(f"  SB({t.tid},{v}) = {bound_str(result.sb[(t.tid, v)])}")
    lines.append(f"Overall runtime bound: {bound_str(result.overall)}")
    lines.append(f"Asymptotic class: {result.asymptotic}")
    for tid, verdict in result.twn_verdicts.items():
        extra = ""
        if "witness" in verdict:
            extra = " witness " + ",".join(
                f"{v}={n}" for v, n in sorted(verdict["witness"].items())
            )
        if "reason" in verdict:
            extra += f" ({verdict['reason']})"
        lines.append(f"Loop {tid}: {verdict['status']}{extra}")
    return "\n".join(lines) + "\n"


def _parse_state(text: str, program: Program) -> dict[str, int]:
    state: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in program.vars:
            raise ProgramError(f"unknown variable in state: {name}")
        if name in state:
            raise ProgramError(f"variable named twice in state: {name}")
        try:
            state[name] = int(value.strip())
        except ValueError:
            raise ProgramError(f"bad integer for {name}: {value.strip()!r}") from None
    for v in program.vars:
        state.setdefault(v, 0)
    return state


def _cmd_simulate(args) -> int:
    program = _load(args.file)
    state = _parse_state(args.state, program)
    result = exhaustive_run(program, state, args.max_steps)
    if result.exceeded_reason == "size":
        print(f"runtime: exceeded (size, cap {VALUE_BITS_CAP} bits)")
    elif result.exceeded:
        print(f"runtime: exceeded ({result.exceeded_reason}, budget {args.max_steps})")
    else:
        print(f"runtime: {result.rc}")
        for t in program.transitions:
            print(f"  {t.tid}: {result.per_transition[t.tid]}")
    print(f"configurations explored: {result.explored}")
    return 0


def _cmd_closed_form(args) -> int:
    program = _load(args.file)
    t = program.transition(args.transition)
    try:
        loop = twn_check(t)
        cf = closed_form(loop)
    except (TwnRejection, ClosedFormTooLarge) as exc:
        print(f"not analyzable: {exc}", file=sys.stderr)
        return 2
    if len(loop.path) > 1:
        print("note: negative self-coefficients; closed form is for the doubled step",
              file=sys.stderr)
    for v in program.vars:
        print(f"{v}(n) = {cf[v]}")
    print(f"valid from n = {cf.start}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
