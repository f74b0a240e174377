"""Bundled fallback decision procedure speaking an SMT-LIB2 subset.

Run as ``python -m polybound.minismt``; reads a script on standard input and
answers ``sat`` (with a model), ``unsat`` or ``unknown``.  It exists so the
analyzer works on machines without an external SMT solver; when a real
solver is on the PATH it is preferred (see :mod:`polybound.smt`).  The
analyzer's queries start it as :func:`polybound.smt.launch_command` builds
it: isolated, without ``site``, calling :func:`main` on the parent's package.

Accepted input: exactly the two scripts :mod:`polybound.smt` writes.  Their
``set-logic`` line picks the reader, and every constant is declared with
that logic's sort.  Terms are integer numerals, declared constants, ``+``,
``*``, unary ``-`` and ``/`` by a nonzero constant.

- ``QF_NIA`` (:func:`polybound.smt.int_script`): every assertion is
  ``(> t 0)`` atoms under ``and``/``or``.  It is read as an
  :mod:`polybound.ir` formula and expanded through :func:`polybound.ir.dnf`
  into at most ``DNF_CAP`` clauses.
- ``QF_NRA`` (:func:`polybound.smt.real_script`): every assertion is one
  affine row ``(= t 0)`` or ``(>= t 0)``.  The rows are solved as one
  system of :class:`polybound.ir.linear.LinearConstraint` by an exact,
  fraction-free simplex.

It imports only the polynomial, formula and row modules of
:mod:`polybound.ir`, so each query's process starts without the analyzer.

Everything else answers ``unknown``, which callers treat as "no
information".  The procedure is deliberately incomplete but *sound*:
``sat`` is only reported with a concrete model, and an Int ``unsat`` only
when every DNF clause is refuted by one of

- exact rational infeasibility of its linear part (the simplex; an atom
  ``p > 0`` with integer coefficients is the row ``p - 1 >= 0``),
- a monomial-parity argument (a sum of negatively weighted even-power
  monomials plus a constant can never exceed the constant), or
- forced-zero propagation (``x^k <= 0`` pins ``x`` to 0, enabling
  substitution).

The last two, with the constant rows, need no search; they are
:func:`presolve_clause`, which the analyzer also runs in-process, so an
analyzer formula they refute, or whose first unrefuted clause they leave
without rows (this process's all-zero ``sat``), never reaches it.
"""

from __future__ import annotations

import os
import re
import sys
import time
from fractions import Fraction
from math import gcd, lcm

from . import _Value
from .ir import Atom, DnfCapExceeded, Formula, Polynomial, dnf, mk_and, mk_or
from .ir.linear import LinearConstraint

DNF_CAP = 1024
ENUM_VALUES = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8]
ENUM_NODE_CAP = 200_000


# -- s-expressions ------------------------------------------------------------


def parse_sexprs(text: str) -> list:
    tokens = re.findall(r"[()]|[^\s()]+", text)
    out = []
    pos = 0
    while pos < len(tokens):
        expr, pos = _parse_one(tokens, pos)
        out.append(expr)
    return out


def _parse_one(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while tokens[pos] != ")":
            item, pos = _parse_one(tokens, pos)
            items.append(item)
        return items, pos + 1
    if tok == ")":
        raise ValueError("unbalanced parenthesis")
    return tok, pos + 1


# -- terms to polynomials ------------------------------------------------------


class Unsupported(Exception):
    pass


def term_to_poly(term, declared: set[str]) -> Polynomial:
    """A term as :func:`polybound.smt.poly_to_sexpr` writes one: integer
    numerals, declared constants, ``+``, ``*``, unary ``-`` and ``/`` by a
    nonzero constant."""
    if isinstance(term, str):
        if term in declared:
            return Polynomial.var(term)
        if term.isascii() and term.isdigit():
            try:
                return Polynomial.const(int(term))
            except ValueError:  # past sys.get_int_max_str_digits()
                pass
        raise Unsupported(f"unknown symbol {term}")
    if not term:
        raise Unsupported("empty term")
    head = term[0]
    args = term[1:]
    if head == "+":
        result = Polynomial.zero()
        for a in args:
            result = result + term_to_poly(a, declared)
        return result
    if head == "-" and len(args) == 1:
        return -term_to_poly(args[0], declared)
    if head == "*":
        result = Polynomial.one()
        for a in args:
            result = result * term_to_poly(a, declared)
        return result
    if head == "/" and len(args) == 2:
        num = term_to_poly(args[0], declared)
        den = term_to_poly(args[1], declared)
        if not den.is_const or den.const_value() == 0:
            raise Unsupported("division by non-constant")
        return num.scale(Fraction(1) / den.const_value())
    raise Unsupported(f"term {head} with {len(args)} arguments")


# -- assertions to the analyzer's formulas and rows ----------------------------


def _compared(term, relations: tuple[str, ...], declared) -> tuple[str, Polynomial]:
    """``(REL t 0)``, with REL one of *relations*, as ``(REL, t)``."""
    if not (isinstance(term, list) and len(term) == 3 and term[0] in relations
            and term[2] == "0"):
        raise Unsupported("not a relation with 0")
    return term[0], term_to_poly(term[1], declared)


def int_formula(term, declared) -> Formula:
    """An Int assertion, ``(> t 0)`` atoms under ``and``/``or``, as an
    :mod:`polybound.ir` formula; each ``Atom`` clears its denominators."""
    if isinstance(term, list) and term and term[0] in ("and", "or"):
        children = [int_formula(a, declared) for a in term[1:]]
        return mk_and(children) if term[0] == "and" else mk_or(children)
    return Atom(_compared(term, (">",), declared)[1])


def real_row(term, declared) -> LinearConstraint:
    """A Real assertion, one affine ``(= t 0)`` or ``(>= t 0)``, as an LP row."""
    rel, poly = _compared(term, ("=", ">="), declared)
    if poly.degree() > 1:
        raise Unsupported("non-linear real term")
    return LinearConstraint.from_poly(poly, rel)


# -- exact simplex ---------------------------------------------------------------
#
# Feasibility over the rationals, decided by the first phase of the simplex
# alone: its point is the answer.  Free variables are translated as
# x_i = p_i - u with one shared nonnegative shift u.  The arithmetic is exact
# but fraction-free: a tableau row is a sparse ``column -> int`` dict holding
# no zeros, over one positive denominator, and the right-hand side is stored
# under the column RHS.  Rows are reduced by the gcd of their entries after
# every update, so Fractions are built only for the returned point.

RHS = -1


class _Row(_Value):
    """``num[j] / den`` for every column j; ``den > 0``."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict[int, int], den: int = 1):
        self.num, self.den = num, den


def solve_lp(constraints: list[LinearConstraint], deadline: float | None = None):
    """Feasibility of ``sum coeffs + const REL 0`` rows, REL ``=`` or ``>=``.

    Returns (status, point) with status 'sat' or 'unsat'; point maps variable
    names to Fractions.  Raises ``TimeoutError`` if a pivot is due after
    *deadline*, a :func:`time.monotonic` instant.
    """
    cols: dict[str, int] = {}

    def col(name: str) -> int:
        return cols.setdefault(name, len(cols))

    # each row times the lcm of its constraint's denominators, and that lcm
    geq_rows: list[tuple[dict[int, int], int]] = []
    eq_rows: list[tuple[dict[int, int], int]] = []
    for c in constraints:
        scale = lcm(c.const.denominator, *(k.denominator for _, k in c.coeffs))
        row = {RHS: -c.const.numerator * (scale // c.const.denominator)}
        for var, k in c.coeffs:
            n = k.numerator * (scale // k.denominator)
            pc, uc = col("p!" + var), col("u!")
            row[pc] = row.get(pc, 0) + n
            row[uc] = row.get(uc, 0) - n
        (eq_rows if c.rel == "=" else geq_rows).append((row, scale))

    # slack columns for >= rows (lhs - slack = rhs), then one artificial per row
    slack_base = len(cols)
    art_base = slack_base + len(geq_rows)
    tableau: list[_Row] = []
    for i, (row, scale) in enumerate(geq_rows + eq_rows):
        if i < len(geq_rows):
            row[slack_base + i] = -scale
        sign = -1 if row[RHS] < 0 else 1
        row = {j: sign * v for j, v in row.items() if v}
        row[art_base + i] = scale
        tableau.append(_Row(row, scale))
    basis = [art_base + i for i in range(len(tableau))]

    # maximize -sum(artificials); the objective row holds reduced costs
    obj = _Row({j: 1 for j in basis})
    for i, row in enumerate(tableau):
        _eliminate(obj, row, art_base + i)
    _simplex(tableau, basis, obj, deadline)
    if obj.num.get(RHS):  # the objective's rhs tracks -sum(artificials)
        return "unsat", {}

    value = {b: Fraction(row.num.get(RHS, 0), row.den) for b, row in zip(basis, tableau)}
    shift = value.get(cols.get("u!"), Fraction(0))
    return "sat", {
        name[2:]: value.get(c, Fraction(0)) - shift
        for name, c in cols.items()
        if name.startswith("p!")
    }


def _simplex(tableau, basis, obj, deadline):
    """Bland's rule; pivots until no objective column below zero remains.

    The entering column is the lowest one with a negative reduced cost; ties
    in the ratio test go to the row whose basic column is lowest.  A row's
    ratio ``rhs / coeff`` is the quotient of its numerators, so ratios are
    compared cross-multiplied.  The objective, ``-sum(artificials)``, is
    bounded by 0, so an entering column always has a row to leave.
    """
    while True:
        entering = min((j for j, v in obj.num.items() if j != RHS and v < 0), default=None)
        if entering is None:
            return
        best_i = None
        for i, row in enumerate(tableau):
            coeff = row.num.get(entering, 0)
            if coeff > 0:
                rhs = row.num.get(RHS, 0)
                if best_i is None or ((rhs * best_coeff, basis[i])
                                      < (best_rhs * coeff, basis[best_i])):
                    best_i, best_rhs, best_coeff = i, rhs, coeff
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("simplex past its deadline")
        _pivot(tableau, basis, best_i, entering)
        _eliminate(obj, tableau[best_i], entering)


def _pivot(tableau, basis, row_i, col_j):
    pivot = tableau[row_i]
    # num / den divided by num[col_j] / den is num / num[col_j]
    g = gcd(*pivot.num.values()) * (1 if pivot.num[col_j] > 0 else -1)
    pivot.num = {j: v // g for j, v in pivot.num.items()}
    pivot.den = pivot.num[col_j]
    for other in tableau:
        if other is not pivot and col_j in other.num:
            _eliminate(other, pivot, col_j)
    basis[row_i] = col_j


def _eliminate(row: _Row, pivot: _Row, col_j: int) -> None:
    """``row -= row[col_j] * pivot`` in place, where ``pivot[col_j]`` is 1,
    dropping entries that cancel and reducing by the gcd."""
    pden = pivot.den
    factor = row.num[col_j]
    num = {j: v * pden for j, v in row.num.items()} if pden != 1 else row.num
    for j, v in pivot.num.items():
        new = num.get(j, 0) - factor * v
        if new:
            num[j] = new
        else:
            num.pop(j, None)
    den = row.den * pden
    g = gcd(den, *num.values())
    if g != 1:
        num = {j: v // g for j, v in num.items()}
        den //= g
    row.num, row.den = num, den


# -- integer clause reasoning ---------------------------------------------------


def monomial_sup(poly: Polynomial) -> Fraction | None:
    """Upper bound of the polynomial over all integer points, if finite."""
    total = Fraction(0)
    for mono, coeff in poly.items():
        if not mono:
            total += coeff
        elif coeff < 0 and all(e % 2 == 0 for _, e in mono):
            continue  # negative even-power monomial peaks at 0
        else:
            return None
    return total


def _forced_zero_var(rows: list[Polynomial]) -> str | None:
    """A variable pinned to zero by a row ``-c * x^even >= 0``."""
    for poly in rows:
        terms = list(poly.items())
        if len(terms) != 1:
            continue
        mono, coeff = terms[0]
        if len(mono) == 1 and coeff < 0 and mono[0][1] % 2 == 0:
            return mono[0][0]
    return None


def presolve_clause(clause: tuple[Atom, ...]) -> list[Polynomial] | None:
    """The clause's rows ``p - 1 >= 0`` after the search-free rules, or None
    when one of them refutes the clause.

    Constant rows are checked and dropped, a row whose :func:`monomial_sup`
    is negative refutes, and a variable pinned to zero by a row
    ``-c * x^even >= 0`` is substituted away; this repeats until no variable
    is pinned.  No simplex and no search, so the analyzer runs it in-process
    before it asks a solver (see :meth:`polybound.smt.SmtContext.sat_int`).
    """
    # atoms have integer coefficients, so p > 0 is the row p - 1 >= 0
    rows = [a.poly - 1 for a in clause]

    changed = True
    while changed:
        changed = False
        kept: list[Polynomial] = []
        for poly in rows:
            if poly.is_const:
                if poly.const_value() < 0:
                    return None
                continue
            sup = monomial_sup(poly)
            if sup is not None and sup < 0:
                return None
            kept.append(poly)
        rows = kept
        var = _forced_zero_var(rows)
        if var is not None:
            zero = {var: Polynomial.zero()}
            rows = [poly.substitute(zero) for poly in rows]
            changed = True
    return rows


def solve_clauses(clauses: list[tuple[Atom, ...]], search: bool = True):
    """The first satisfiable clause's ``('sat', model)``; ``('unsat', {})``
    if every clause is refuted, else ``('unknown', {})``.

    After :func:`presolve_clause`, a clause of linear rows is refuted by the
    exact simplex or its rational point rounded; otherwise, or if rounding
    fails, a bounded integer search looks for a model.  Without *search*,
    None where the first clause not refuted needs either."""
    saw_unknown = False
    for clause in clauses:
        rows = presolve_clause(clause)
        if rows is None:
            continue
        if not rows:
            return "sat", {}
        if not search:
            return None
        hint: dict[str, Fraction] = {}
        if all(poly.degree() <= 1 for poly in rows):
            status, hint = solve_lp([LinearConstraint.from_poly(poly, ">=") for poly in rows])
            if status == "unsat":
                continue
        model = _integer_hunt(rows, hint)
        if model is not None:
            return "sat", model
        saw_unknown = True
    return ("unknown" if saw_unknown else "unsat"), {}


def _integer_hunt(rows: list[Polynomial], hint: dict[str, Fraction]):
    """An integer point with every row ``>= 0``, or None."""
    variables = sorted({v for poly in rows for v in poly.variables()})
    int_rows = [_int_row(poly) for poly in rows]
    # rounding the rational point first
    if hint:
        base = {v: hint.get(v, Fraction(0)) for v in variables}
        if len(variables) <= 12:
            candidates = [{}]
            for v in variables:
                lo = base[v].numerator // base[v].denominator
                options = [lo] if base[v].denominator == 1 else [lo, lo + 1]
                candidates = [
                    {**c, v: o} for c in candidates for o in options
                ]
            for cand in candidates:
                if all(_holds(row, cand) for row in int_rows):
                    return cand
    # bounded enumeration with partial pruning
    by_prefix: list[list[list[tuple[int, tuple]]]] = []
    seen: set[int] = set()
    for i in range(len(variables)):
        scope = set(variables[: i + 1])
        group = []
        for j, poly in enumerate(rows):
            if j not in seen and poly.variables() <= scope:
                group.append(int_rows[j])
                seen.add(j)
        by_prefix.append(group)

    nodes = 0
    assignment: dict[str, int] = {}

    def recurse(i: int):
        nonlocal nodes
        if i == len(variables):
            return dict(assignment)
        for value in ENUM_VALUES:
            nodes += 1
            if nodes > ENUM_NODE_CAP:
                raise Unsupported("enumeration cap")
            assignment[variables[i]] = value
            if all(_holds(row, assignment) for row in by_prefix[i]):
                found = recurse(i + 1)
                if found is not None:
                    return found
        assignment.pop(variables[i], None)
        return None

    try:
        return recurse(0)
    except Unsupported:
        return None


def _int_row(poly: Polynomial) -> list[tuple[int, tuple]]:
    """The row's ``(coefficient, monomial)`` pairs in ``int``; rows built
    from atoms are integral, so anything else is a bug, not a rounding."""
    if not poly.is_integral():
        raise ValueError(f"non-integral row {poly} >= 0")
    return [(coeff.numerator, mono) for mono, coeff in poly.items()]


def _holds(row: list[tuple[int, tuple]], state: dict[str, int]) -> bool:
    total = 0
    for value, mono in row:
        for v, e in mono:
            value *= state[v] ** e
        total += value
    return total >= 0


# -- driver ---------------------------------------------------------------------


# the logic each of polybound.smt's scripts sets, and its constants' sort
LOGICS = {"QF_NIA": "Int", "QF_NRA": "Real"}
# the commands those scripts hold, and their numbers of arguments
ARITY = {"set-logic": 1, "declare-const": 2, "assert": 1, "check-sat": 0, "get-model": 0}


def run(script: str, out) -> None:
    """Answers each ``check-sat`` of *script* on *out*.

    A script that does not parse answers ``unknown``; so does a command
    outside the scripts' dialect, after which nothing more is answered.
    """
    try:
        commands = parse_sexprs(script)
    except Exception:
        print("unknown", file=out)
        return
    try:
        _execute(commands, out)
    except Unsupported:
        print("unknown", file=out)


def _execute(commands: list, out) -> None:
    sort = None  # of the constants, by the script's logic
    declared: set[str] = set()
    assertions: list = []
    model: dict[str, Fraction] | None = None  # of the last check-sat, if sat

    for cmd in commands:
        if not (isinstance(cmd, list) and cmd and isinstance(cmd[0], str)
                and len(cmd) == ARITY.get(cmd[0], -1) + 1):
            raise Unsupported("command outside the dialect")
        head = cmd[0]
        if head == "set-logic":
            sort = LOGICS.get(cmd[1]) if isinstance(cmd[1], str) else None
        elif head == "declare-const":
            if sort is None or not isinstance(cmd[1], str) or cmd[2] != sort:
                raise Unsupported("declaration outside the logic")
            declared.add(cmd[1])
        elif head == "assert":
            assertions.append(cmd[1])
        elif head == "check-sat":
            if sort is None:
                raise Unsupported("no logic set")
            status, model = _check(sort, declared, assertions)
            print(status, file=out)
        elif model is None:  # get-model
            print("(error \"no model\")", file=out)
        else:
            print("(", file=out)
            for name in sorted(declared):
                value = _print_value(model.get(name, Fraction(0)), sort)
                print(f"  (define-fun {name} () {sort} {value})", file=out)
            print(")", file=out)


def _check(sort: str, declared: set[str], assertions: list):
    try:
        if sort == "Real":
            status, model = solve_lp([real_row(a, declared) for a in assertions])
        else:
            f = mk_and([int_formula(a, declared) for a in assertions])
            status, model = solve_clauses(dnf(f, DNF_CAP))
    except (Unsupported, DnfCapExceeded, RecursionError):  # the last: nested too deep
        return "unknown", None
    if status != "sat":
        return status, None
    return "sat", {v: Fraction(model.get(v, 0)) for v in declared}


def _print_value(value: Fraction, sort: str) -> str:
    if sort == "Int":
        n = value.numerator
        return str(n) if n >= 0 else f"(- {-n})"
    if value.denominator == 1:
        n = value.numerator
        return f"{n}.0" if n >= 0 else f"(- {-n}.0)"
    sign = "(- {})" if value < 0 else "{}"
    return sign.format(f"(/ {abs(value.numerator)}.0 {value.denominator}.0)")


def main() -> None:
    """Answers the script on standard input, then ends the process: a child
    answers one script, and with its answer flushed it skips the
    interpreter's shutdown (module teardown, garbage collection)."""
    run(sys.stdin.read(), sys.stdout)
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
