"""Bridge to an SMT solver over the SMT-LIB2 textual protocol.

A query that reaches the solver starts one solver process: the script is
written to the process's standard input, the reply parsed from its standard
output, and the process killed at the timeout.  ``Unknown`` is always a safe
outcome for callers (bounds stay infinite, verdicts stay undecided), so a
broken or missing solver can never make the analyzer unsound.

Queries are first tried in-process by the bundled procedure's refutations:
a linear system (ranking query) by the exact simplex
(:func:`polybound.minismt.solve_lp`), an integer formula (termination query)
clause by clause of its DNF by :func:`polybound.minismt.solve_clauses`
without its simplex and search.  A refutation is a proof, so it answers
``unsat`` without a process, whatever the configured solver.  A formula whose
first unrefuted clause those rules leave without rows answers ``sat`` at the
all-zero state, as the bundled procedure does, also without a process.  Every
other query goes to the configured solver, whose answer and model are kept.  A
query whose script would hold a constant too long for ``str()`` answers
``unknown``.

Solver resolution order: explicit path argument, the ``POLYBOUND_SMT``
environment variable, and otherwise the bundled procedure
(:mod:`polybound.minismt`), named by :data:`BUNDLED`, whose queries start an
isolated child without ``site`` that imports this very package
(:func:`launch_command`).  A solver on the PATH is used only when one of the
two names it, so what is installed does not change a report.

Ranking queries are systems of :class:`polybound.ir.linear.LinearConstraint`
rows, re-exported here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .ir import And, Atom, DnfCapExceeded, Formula, dnf, formula_vars
from .ir.linear import LinearConstraint
from .minismt import DNF_CAP, parse_sexprs, solve_clauses, solve_lp


class SolverNotFound(Exception):
    pass


class UnwritableConstant(Exception):
    """A constant past the interpreter's limit on integer-to-string conversion."""


@dataclass
class SmtResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: dict[str, Fraction] = field(default_factory=dict)
    reason: str = ""

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


# The bundled procedure's command: what :func:`resolve_solver` returns when no
# solver is named, and how a script is replayed by hand.  Queries run
# :func:`launch_command`'s.
BUNDLED = [sys.executable, "-m", "polybound.minismt"]
# where this ``polybound`` package is imported from
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The longest wait, in ms, that select.poll takes; the solver child is awaited
# with it, and a longer timeout would overflow there.
MAX_TIMEOUT_MS = 2**31 - 1


def resolve_solver(explicit: str | None = None) -> list[str]:
    """Command line for the solver that ``explicit``, else ``POLYBOUND_SMT``,
    names (on the PATH or as a file), else :data:`BUNDLED`; raises
    :class:`SolverNotFound` for a name that is neither."""
    for source, path in (("option", explicit), ("env", os.environ.get("POLYBOUND_SMT"))):
        if not path:
            continue
        resolved = shutil.which(path) or (path if os.path.isfile(path) else None)
        if resolved is None:
            raise SolverNotFound(f"solver from {source} not found: {path}")
        return _command_for(resolved)
    return list(BUNDLED)


def _command_for(path: str) -> list[str]:
    name = os.path.basename(path)
    if "z3" in name:
        return [path, "-in", "-smt2"]
    return [path]


def launch_command(solver: list[str]) -> list[str]:
    """The command a query runs for ``solver``: itself, except for
    :data:`BUNDLED`.

    The bundled procedure starts isolated (``-I``: neither the working
    directory nor ``PYTHON*`` variables reach ``sys.path``), so a
    ``fractions.py`` or ``polybound/`` where the analyzer runs cannot shadow
    its imports, and without ``site`` (``-S``: no site-packages and their
    ``.pth`` hooks, about a quarter of a one-line query's time).  It
    appends the parent's package root to its path, so it runs the parent's
    ``polybound`` over the standard library.  ``-I`` drops the environment,
    so what it carried is passed on: no bytecode writing (``-B``) and the
    limit on integer string conversion, which a script's constants may need
    lifted.  Both are read per query.
    """
    if solver != BUNDLED:
        return solver
    flags = ["-I", "-S", "-X", f"int_max_str_digits={sys.get_int_max_str_digits()}"]
    if sys.dont_write_bytecode:
        flags.append("-B")
    code = (f"import sys; sys.path.append({PACKAGE_ROOT!r}); "
            "from polybound.minismt import main; main()")
    return [sys.executable, *flags, "-c", code]


# -- script emission -----------------------------------------------------------


def script_symbols(names) -> dict[str, str]:
    """The symbol each of ``names`` has in a script: ``k`` and the name's
    rank in sorted order, zero-padded so that the symbols sort as the names
    do.  Program names may hold ``'``, non-ASCII letters or SMT-LIB words
    such as ``and``, none of which a script may declare."""
    ordered = sorted(set(names))
    width = max(2, len(str(len(ordered) - 1)))
    return {v: f"k{i:0{width}}" for i, v in enumerate(ordered)}


def poly_to_sexpr(p, symbol: dict[str, str]) -> str:
    """Powers are expanded to products; SMT-LIB has no integer power."""
    terms = []
    for mono, coeff in p.sorted_terms():
        factors = [_frac_sexpr(coeff)] if (coeff != 1 or not mono) else []
        for v, e in mono:
            factors.extend([symbol[v]] * e)
        terms.append(factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")")
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def _frac_sexpr(c: Fraction) -> str:
    if c.denominator == 1:
        n = c.numerator
        return _numeral(n) if n >= 0 else f"(- {_numeral(-n)})"
    body = f"(/ {_numeral(abs(c.numerator))} {_numeral(c.denominator)})"
    return body if c >= 0 else f"(- {body})"


def _numeral(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise UnwritableConstant(
            f"constant of {_digit_count(n)} digits too long to write for the solver"
        ) from None


def _digit_count(n: int) -> int:
    """Decimal digits of ``n > 0``, counted without ``str()``."""
    k = max(int(n.bit_length() * 0.30102999566398120) - 1, 1)  # log10(2)
    while 10**k <= n:
        k += 1
    return k


def formula_to_sexpr(f: Formula, symbol: dict[str, str]) -> str:
    if isinstance(f, Atom):
        return f"(> {poly_to_sexpr(f.poly, symbol)} 0)"
    op = "and" if isinstance(f, And) else "or"
    return f"({op} " + " ".join(formula_to_sexpr(c, symbol) for c in f.children) + ")"


def int_script(f: Formula) -> str:
    symbol = script_symbols(formula_vars(f))
    lines = ["(set-logic QF_NIA)"]
    for s in symbol.values():
        lines.append(f"(declare-const {s} Int)")
    lines.append(f"(assert {formula_to_sexpr(f, symbol)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def real_script(constraints: list[LinearConstraint]) -> str:
    symbol = script_symbols(v for c in constraints for v, _ in c.coeffs)
    lines = ["(set-logic QF_NRA)"]
    for s in symbol.values():
        lines.append(f"(declare-const {s} Real)")
    for c in constraints:
        parts = [f"(* {_frac_sexpr(k)} {symbol[v]})" for v, k in c.coeffs]
        if c.const != 0 or not parts:
            parts.append(_frac_sexpr(c.const))
        body = parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"
        lines.append(f"(assert ({c.rel} {body} 0))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# -- reply parsing --------------------------------------------------------------


def _parse_value(expr) -> Fraction | None:
    if isinstance(expr, str):
        try:
            return Fraction(expr)  # handles "3", "-3", "1.5", "5.0"
        except (ValueError, ZeroDivisionError):
            return None
    if not expr:
        return None
    if expr[0] == "-" and len(expr) == 2:
        inner = _parse_value(expr[1])
        return None if inner is None else -inner
    if expr[0] == "/" and len(expr) == 3:
        num = _parse_value(expr[1])
        den = _parse_value(expr[2])
        if num is None or den is None or den == 0:
            return None
        return num / den
    return None


def parse_model(sexprs) -> dict[str, Fraction]:
    model: dict[str, Fraction] = {}

    def walk(node):
        if isinstance(node, list):
            if len(node) >= 5 and node[0] == "define-fun" and node[2] == []:
                value = _parse_value(node[4])
                if value is not None:
                    model[node[1]] = value
            else:
                for child in node:
                    walk(child)

    for node in sexprs:
        walk(node)
    return model


def _run_solver(script: str, timeout_ms: int, solver: list[str]) -> SmtResult:
    try:
        proc = subprocess.run(
            launch_command(solver),
            input=script,
            capture_output=True,
            text=True,
            timeout=timeout_ms / 1000.0,
        )
    except subprocess.TimeoutExpired:
        return SmtResult("unknown", reason=f"timeout after {timeout_ms} ms")
    except FileNotFoundError as exc:
        return SmtResult("unknown", reason=f"solver not found: {exc}")
    except OSError as exc:
        return SmtResult("unknown", reason=f"solver failed: {exc}")
    return parse_reply(proc.stdout)


def parse_reply(reply: str) -> SmtResult:
    """The verdict, and for ``sat`` the model, a solver wrote to standard output."""
    status = None
    rest_lines: list[str] = []
    for line in reply.splitlines():
        stripped = line.strip()
        if status is None and stripped in ("sat", "unsat", "unknown"):
            status = stripped
        elif status is not None:
            rest_lines.append(line)
    if status is None:
        return SmtResult("unknown", reason="no verdict in solver output")
    if status == "sat":
        try:
            model = parse_model(parse_sexprs("\n".join(rest_lines)))
        except Exception:
            return SmtResult("unknown", reason="unparseable model")
        return SmtResult("sat", model=model)
    if status == "unsat":
        return SmtResult("unsat")
    return SmtResult("unknown", reason="solver reported unknown")


# Reasons given when the solver process itself broke down, not the query.
PROCESS_FAILURES = ("no verdict in solver output", "solver not found", "solver failed")


@dataclass
class SmtContext:
    """Solver configuration threaded through the analysis.

    It also tallies the solver's answers: ``decided`` counts sat and unsat
    answers, ``failures`` holds the reason of every query that failed at the
    process level.  Queries answered in-process (refuted, satisfied at 0, or
    with a script that cannot be written) count in neither, so a broken
    solver is still told apart from a hard program.

    Without a ``solver`` command the context resolves one when it is built
    (:func:`resolve_solver`), so a missing ``POLYBOUND_SMT`` solver raises
    :class:`SolverNotFound` there rather than in the middle of an analysis.
    """

    solver: list[str] | None = None
    timeout_ms: int = 5000
    decided: int = field(default=0, init=False)
    failures: list[str] = field(default_factory=list, init=False)

    def __post_init__(self):
        if not 1 <= self.timeout_ms <= MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms must be from 1 to {MAX_TIMEOUT_MS}, "
                             f"got {self.timeout_ms}")
        if self.solver is None:
            self.solver = resolve_solver()

    def sat_int(self, f: Formula) -> SmtResult:
        """Satisfiability of a guard formula over integer-valued variables."""
        return self._decide(f, self._int_presolved, int_script, formula_vars)

    def sat_real(self, constraints: list[LinearConstraint]) -> SmtResult:
        """Satisfiability of an affine constraint system over real unknowns."""
        return self._decide(constraints, self._real_presolved, real_script,
                            lambda cs: (v for c in cs for v, _ in c.coeffs))

    def _decide(self, query, presolved, write_script, unknowns) -> SmtResult:
        """The in-process answer to ``query``, if there is one, or else the
        solver's, with its model read back through :func:`script_symbols`;
        the model gives 0 to every unknown it leaves out."""
        result = presolved(query)
        if result is None:
            try:
                script = write_script(query)
            except UnwritableConstant as exc:
                return SmtResult("unknown", reason=str(exc))
            result = _run_solver(script, self.timeout_ms, self.solver)
            name = {s: v for v, s in script_symbols(unknowns(query)).items()}
            result.model = {name[s]: x for s, x in result.model.items() if s in name}
            if result.is_sat or result.is_unsat:
                self.decided += 1
            elif result.reason.startswith(PROCESS_FAILURES):
                self.failures.append(result.reason)
        if result.is_sat:
            for v in unknowns(query):
                result.model.setdefault(v, Fraction(0))
        return result

    def _real_presolved(self, constraints: list[LinearConstraint]) -> SmtResult | None:
        """``unsat`` if the exact simplex proves the system infeasible within
        the timeout; otherwise, past it too, None: the solver is asked."""
        deadline = time.monotonic() + self.timeout_ms / 1000.0
        try:
            status, _ = solve_lp(constraints, deadline)
        except TimeoutError:
            return None
        return SmtResult("unsat", reason="refuted in-process") if status == "unsat" else None

    @staticmethod
    def _int_presolved(f: Formula) -> SmtResult | None:
        """The bundled child's answer where the search-free rules give it:
        ``unsat`` if they refute every DNF clause (none at all, too), ``sat``
        at 0 if the first one they do not refute keeps no row; else None."""
        try:
            answer = solve_clauses(dnf(f, DNF_CAP), search=False)
        except DnfCapExceeded:
            return None
        if answer is None:
            return None
        if answer[0] == "sat":  # ``_decide`` sets every variable to 0
            return SmtResult("sat", reason="satisfied in-process")
        return SmtResult("unsat", reason="refuted in-process")
