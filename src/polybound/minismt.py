"""Bundled fallback decision procedure speaking an SMT-LIB2 subset.

Run as ``python -m polybound.minismt``; reads a script on standard input and
answers ``sat`` (with a model), ``unsat`` or ``unknown``.  It exists so the
analyzer works on machines without an external SMT solver; when a real
solver is on the PATH it is preferred (see :mod:`polybound.smt`).

Supported: QF_LRA-style conjunctions/disjunctions over declared Int or Real
constants, with polynomial terms.  The procedure is deliberately incomplete
but *sound*: ``sat`` is only reported with a concrete model that checks by
exact evaluation, and ``unsat`` only when every DNF clause is refuted by one
of

- exact rational infeasibility of its linear part (Fourier-style via an
  exact two-phase simplex; for integer variables the strict atoms are first
  tightened with ``p > 0  iff  p >= 1``),
- a monomial-parity argument (a sum of negatively weighted even-power
  monomials plus a constant can never exceed the constant), or
- forced-zero propagation (``x^k <= 0`` pins ``x`` to 0, enabling
  substitution).

Everything else is ``unknown``, which callers treat as "no information".
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .ir import Polynomial

DNF_CAP = 1024
ENUM_VALUES = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8]
ENUM_NODE_CAP = 200_000


# -- s-expressions ------------------------------------------------------------


def parse_sexprs(text: str) -> list:
    tokens = _tokenize(text)
    out = []
    pos = 0
    while pos < len(tokens):
        expr, pos = _parse_one(tokens, pos)
        out.append(expr)
    return out


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append(ch)
            i += 1
            continue
        if ch == "|":
            j = text.index("|", i + 1)
            tokens.append(text[i : j + 1])
            i = j + 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in "();":
            j += 1
        tokens.append(text[i:j])
        i = j
    return tokens


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


def term_to_poly(term, declared: dict[str, str]) -> Polynomial:
    if isinstance(term, str):
        if term in declared:
            return Polynomial.var(term)
        try:
            return Polynomial.const(int(term))
        except ValueError:
            pass
        try:
            return Polynomial.const(Fraction(term))
        except ValueError:
            raise Unsupported(f"unknown symbol {term}")
    head = term[0]
    args = term[1:]
    if head == "+":
        result = Polynomial.zero()
        for a in args:
            result = result + term_to_poly(a, declared)
        return result
    if head == "-":
        if len(args) == 1:
            return -term_to_poly(args[0], declared)
        result = term_to_poly(args[0], declared)
        for a in args[1:]:
            result = result - term_to_poly(a, declared)
        return result
    if head == "*":
        result = Polynomial.one()
        for a in args:
            result = result * term_to_poly(a, declared)
        return result
    if head == "/":
        num = term_to_poly(args[0], declared)
        den = term_to_poly(args[1], declared)
        if not den.is_const or den.const_value() == 0:
            raise Unsupported("division by non-constant")
        return num.scale(Fraction(1) / den.const_value())
    raise Unsupported(f"term {head}")


# Atoms are (poly, strict) meaning poly > 0 (strict) or poly >= 0.
Atom = tuple[Polynomial, bool]


def formula_to_nnf(term, declared, negate: bool):
    """Returns nested ('or'|'and', children) / ('atom', poly, strict)."""
    if isinstance(term, str):
        if term == "true":
            return ("and", []) if not negate else ("or", [])
        if term == "false":
            return ("or", []) if not negate else ("and", [])
        raise Unsupported(f"boolean symbol {term}")
    head = term[0]
    args = term[1:]
    if head == "not":
        return formula_to_nnf(args[0], declared, not negate)
    if head in ("and", "or"):
        kind = head if not negate else ("or" if head == "and" else "and")
        return (kind, [formula_to_nnf(a, declared, negate) for a in args])
    if head in ("<", "<=", ">", ">=", "="):
        lhs = term_to_poly(args[0], declared)
        rhs = term_to_poly(args[1], declared)
        if negate:
            head = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!="}[head]
        diff = lhs - rhs
        if head == "<":
            return ("atom", -diff, True)
        if head == "<=":
            return ("atom", -diff, False)
        if head == ">":
            return ("atom", diff, True)
        if head == ">=":
            return ("atom", diff, False)
        if head == "=":
            return ("and", [("atom", diff, False), ("atom", -diff, False)])
        # disequality
        return ("or", [("atom", diff, True), ("atom", -diff, True)])
    raise Unsupported(f"connective {head}")


def nnf_to_dnf(node) -> list[list[Atom]]:
    kind = node[0]
    if kind == "atom":
        return [[(node[1], node[2])]]
    clause_lists = [nnf_to_dnf(c) for c in node[1]]
    if kind == "or":
        out: list[list[Atom]] = []
        for clauses in clause_lists:
            out.extend(clauses)
            if len(out) > DNF_CAP:
                raise Unsupported("DNF cap exceeded")
        return out
    result: list[list[Atom]] = [[]]
    for clauses in clause_lists:
        merged = []
        for left in result:
            for right in clauses:
                merged.append(left + right)
                if len(merged) > DNF_CAP:
                    raise Unsupported("DNF cap exceeded")
        result = merged
    return result


# -- exact two-phase simplex ---------------------------------------------------
#
# Feasibility and optimization for  A x REL b  systems over the rationals.
# Free variables are translated as x_i = p_i - u with one shared nonnegative
# shift u; strict inequalities get a jointly maximized slack eps in (0, 1].


class LP:
    def __init__(self):
        self.cols: dict[str, int] = {}
        self.rows: list[tuple[dict[int, Fraction], Fraction]] = []  # sum = rhs
        self.geq_rows: list[tuple[dict[int, Fraction], Fraction]] = []

    def col(self, name: str) -> int:
        if name not in self.cols:
            self.cols[name] = len(self.cols)
        return self.cols[name]


def solve_lp(constraints: list[tuple[dict[str, Fraction], Fraction, str]]):
    """Feasibility over  sum coeffs + const REL 0  rows.

    rel is '=', '>=' or '>' ('>' rows get the shared eps subtracted and the
    eps variable is maximized).  Returns (status, point) with status one of
    'sat', 'unsat'; point maps variable names to Fractions.
    """
    lp = LP()
    has_strict = any(rel == ">" for _, _, rel in constraints)
    if has_strict:
        eps_col = lp.col("eps!")
    for coeffs, const, rel in constraints:
        row: dict[int, Fraction] = {}
        for var, c in coeffs.items():
            if not c:
                continue
            pc = lp.col("p!" + var)
            uc = lp.col("u!")
            row[pc] = row.get(pc, Fraction(0)) + c
            row[uc] = row.get(uc, Fraction(0)) - c
        if rel == ">":
            row[eps_col] = row.get(eps_col, Fraction(0)) - Fraction(1)
            rel = ">="
        if rel == ">=":
            lp.geq_rows.append((row, -const))
        else:
            lp.rows.append((row, -const))
    if has_strict:
        # eps <= 1  encoded as  -eps >= -1
        lp.geq_rows.append(({eps_col: Fraction(-1)}, Fraction(-1)))

    ncols = len(lp.cols)
    rows = []
    # slack columns for >= rows: lhs - slack = rhs
    slack_base = ncols
    for i, (row, rhs) in enumerate(lp.geq_rows):
        r = dict(row)
        r[slack_base + i] = Fraction(-1)
        rows.append((r, rhs))
    for row, rhs in lp.rows:
        rows.append((dict(row), rhs))
    total_cols = slack_base + len(lp.geq_rows)

    # sign-normalize rhs and add artificials
    nrows = len(rows)
    art_base = total_cols
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (row, rhs) in enumerate(rows):
        if rhs < 0:
            row = {c: -v for c, v in row.items()}
            rhs = -rhs
        dense = [Fraction(0)] * (art_base + nrows + 1)
        for c, v in row.items():
            dense[c] = v
        dense[art_base + i] = Fraction(1)
        dense[-1] = rhs
        tableau.append(dense)
        basis.append(art_base + i)
    width = art_base + nrows + 1

    # phase 1: maximize -sum(artificials); objective row holds reduced costs
    obj = [Fraction(0)] * width
    for j in range(art_base, art_base + nrows):
        obj[j] = Fraction(1)
    for i in range(nrows):
        obj = [o - t for o, t in zip(obj, tableau[i])]
    _simplex(tableau, basis, obj, art_base + nrows)
    if obj[-1] != 0:  # the objective row rhs tracks -sum(artificials)
        return "unsat", {}

    # drive basic artificials out or drop redundant rows
    keep = []
    for i in range(len(tableau)):
        if basis[i] >= art_base:
            pivot_col = next(
                (j for j in range(art_base) if tableau[i][j] != 0), None
            )
            if pivot_col is None:
                continue  # redundant row
            _pivot(tableau, basis, i, pivot_col)
        keep.append(i)
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]

    if has_strict:
        obj = [Fraction(0)] * width
        obj[eps_col] = Fraction(-1)  # maximize eps
        for i, b in enumerate(basis):
            if obj[b] != 0:
                factor = obj[b]
                obj = [o - factor * t for o, t in zip(obj, tableau[i])]
        _simplex(tableau, basis, obj, art_base)

    point_cols: dict[int, Fraction] = {}
    for i, b in enumerate(basis):
        point_cols[b] = tableau[i][-1]
    shift = point_cols.get(lp.cols.get("u!", -1), Fraction(0))
    point: dict[str, Fraction] = {}
    for name, col in lp.cols.items():
        if name.startswith("p!"):
            point[name[2:]] = point_cols.get(col, Fraction(0)) - shift
    if has_strict:
        eps = point_cols.get(lp.cols["eps!"], Fraction(0))
        if eps <= 0:
            return "unsat", {}
        point["eps!"] = eps
    return "sat", point


def _simplex(tableau, basis, obj, limit_col):
    """Bland's rule; pivots until no objective column below zero remains."""
    while True:
        entering = next(
            (j for j in range(limit_col) if obj[j] < 0), None
        )
        if entering is None:
            return
        best_i = None
        best_ratio = None
        for i, row in enumerate(tableau):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_i])
                ):
                    best_ratio = ratio
                    best_i = i
        if best_i is None:
            return  # unbounded; caller reads the current point
        _pivot(tableau, basis, best_i, entering)
        factor = obj[entering]
        if factor:
            obj[:] = [o - factor * t for o, t in zip(obj, tableau[best_i])]


def _pivot(tableau, basis, row_i, col_j):
    row = tableau[row_i]
    inv = Fraction(1) / row[col_j]
    tableau[row_i] = [v * inv for v in row]
    pivot_row = tableau[row_i]
    for i, other in enumerate(tableau):
        if i != row_i and other[col_j] != 0:
            factor = other[col_j]
            tableau[i] = [v - factor * w for v, w in zip(other, pivot_row)]
    basis[row_i] = col_j


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


def _forced_zero_var(atoms: list[Atom]) -> str | None:
    """A variable pinned to zero by an atom ``-c * x^even >= 0``."""
    for poly, strict in atoms:
        if strict:
            continue
        terms = list(poly.items())
        if len(terms) != 1:
            continue
        mono, coeff = terms[0]
        if len(mono) == 1 and coeff < 0 and mono[0][1] % 2 == 0:
            return mono[0][0]
    return None


def solve_int_clause(atoms: list[Atom]):
    """Returns ('sat', model) | ('unsat', {}) | ('unknown', {})."""
    # tighten strict atoms: integer coefficients make p > 0 equal to p >= 1
    work: list[Atom] = []
    for poly, strict in atoms:
        poly = poly.scale(poly.denominator_lcm())
        work.append((poly - 1 if strict else poly, False))

    changed = True
    while changed:
        changed = False
        kept: list[Atom] = []
        for poly, strict in work:
            if poly.is_const:
                if poly.const_value() < 0:
                    return "unsat", {}
                continue
            sup = monomial_sup(poly)
            if sup is not None and sup < 0:
                return "unsat", {}
            kept.append((poly, strict))
        work = kept
        var = _forced_zero_var(work)
        if var is not None:
            zero = {var: Polynomial.zero()}
            work = [(poly.substitute(zero), s) for poly, s in work]
            changed = True

    if not work:
        return "sat", {}

    if all(poly.degree() <= 1 for poly, _ in work):
        constraints = [
            ({v: poly.coefficient(((v, 1),)) for v in poly.variables()},
             poly.constant_term(), ">=")
            for poly, _ in work
        ]
        status, point = solve_lp(constraints)
        if status == "unsat":
            return "unsat", {}
        model = _integer_hunt(work, point)
    else:
        model = _integer_hunt(work, {})
    if model is not None:
        return "sat", model
    return "unknown", {}


def _integer_hunt(atoms: list[Atom], hint: dict[str, Fraction]):
    variables = sorted({v for poly, _ in atoms for v in poly.variables()})
    if not variables:
        return {}
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
                if all(p.evaluate(cand) >= 0 for p, _ in atoms):
                    return cand
    # bounded enumeration with partial pruning
    by_prefix: list[list[Polynomial]] = []
    seen: set[int] = set()
    for i in range(len(variables)):
        scope = set(variables[: i + 1])
        group = []
        for j, (poly, _) in enumerate(atoms):
            if j not in seen and poly.variables() <= scope:
                group.append(poly)
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
            if all(p.evaluate(assignment) >= 0 for p in by_prefix[i]):
                found = recurse(i + 1)
                if found is not None:
                    return found
        assignment.pop(variables[i], None)
        return None

    try:
        return recurse(0)
    except Unsupported:
        return None


def solve_real_clause(atoms: list[Atom]):
    if any(poly.degree() > 1 for poly, _ in atoms):
        return "unknown", {}
    constraints = []
    for poly, strict in atoms:
        coeffs = {v: poly.coefficient(((v, 1),)) for v in poly.variables()}
        constraints.append((coeffs, poly.constant_term(), ">" if strict else ">="))
    status, point = solve_lp(constraints)
    if status == "unsat":
        return "unsat", {}
    point.pop("eps!", None)
    return "sat", point


# -- driver ---------------------------------------------------------------------


def run(script: str, out) -> None:
    declared: dict[str, str] = {}
    assertions: list = []
    answered_sat: dict[str, Fraction] | None = None
    last_status = "unknown"

    try:
        commands = parse_sexprs(script)
    except Exception:
        print("unknown", file=out)
        return

    for cmd in commands:
        if not isinstance(cmd, list) or not cmd:
            continue
        head = cmd[0]
        if head in ("set-logic", "set-option", "set-info"):
            continue
        if head == "declare-const":
            declared[cmd[1]] = cmd[2]
            continue
        if head == "declare-fun":
            if cmd[2] == []:  # only 0-ary functions are constants
                declared[cmd[1]] = cmd[3]
            continue
        if head == "assert":
            assertions.append(cmd[1])
            continue
        if head == "check-sat":
            last_status, answered_sat = _check(declared, assertions)
            print(last_status, file=out)
            continue
        if head == "get-model":
            if last_status == "sat" and answered_sat is not None:
                print("(", file=out)
                for name in sorted(declared):
                    sort = declared[name]
                    value = answered_sat.get(name, Fraction(0))
                    print(
                        f"  (define-fun {name} () {sort} {_print_value(value, sort)})",
                        file=out,
                    )
                print(")", file=out)
            else:
                print("(error \"no model\")", file=out)
            continue
        if head == "exit":
            break


def _check(declared: dict[str, str], assertions: list):
    sorts = set(declared.values())
    if sorts - {"Int", "Real"} or len(sorts) > 1:
        return "unknown", None
    is_int = sorts <= {"Int"}
    try:
        node = ("and", [formula_to_nnf(a, declared, False) for a in assertions])
        clauses = nnf_to_dnf(node)
    except Unsupported:
        return "unknown", None
    if not clauses:
        return "unsat", None

    solver = solve_int_clause if is_int else solve_real_clause
    saw_unknown = False
    for clause in clauses:
        try:
            status, model = solver(clause)
        except Unsupported:
            status, model = "unknown", {}
        if status == "sat":
            if is_int:
                full = {v: Fraction(model.get(v, 0)) for v in declared}
            else:
                full = {v: Fraction(model.get(v, Fraction(0))) for v in declared}
            return "sat", full
        if status == "unknown":
            saw_unknown = True
    return ("unknown", None) if saw_unknown else ("unsat", None)


def _print_value(value: Fraction, sort: str) -> str:
    if sort == "Int":
        n = value.numerator
        return str(n) if n >= 0 else f"(- {-n})"
    if value.denominator == 1:
        n = value.numerator
        return f"{n}.0" if n >= 0 else f"(- {-n}.0)"
    sign = "(- {})" if value < 0 else "{}"
    return sign.format(f"(/ {abs(value.numerator)}.0 {value.denominator}.0)")


def main() -> int:
    run(sys.stdin.read(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
