"""Linear ranking functions for subprograms, synthesized via duality.

One affine template per location.  For every transition in scope and every
disjunct of its guard, two implications are required: the template value
never increases along the transition (and drops by at least 1 on the
transitions being counted), and it is at least 1 whenever a counted
transition fires, so its value at an entry state bounds the counted steps.
Each implication "guard atoms imply affine inequality" is witnessed by
nonnegative multipliers: the implied inequality must equal a nonnegative
combination of the guard rows plus a nonnegative constant, which turns
synthesis into constraint solving over the template coefficients and
multipliers.

Guard atoms are strict over the integers, so ``p > 0`` enters as
``p - 1 >= 0``.  Non-linear guard atoms are dropped from the antecedent
(weakening it only shrinks the space of valid templates) and template
coefficients of variables with non-linear updates are pinned to zero so the
composed template stays affine.

Every synthesized function keeps the model's multipliers as its certificate,
checked by polynomial arithmetic alone against the templates (see
:func:`validate_rf`), so a wrong encoding or solver model is caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import Bound, bound_of_poly, bsum, simplify
from .ir import (
    Atom,
    DnfCapExceeded,
    Polynomial,
    Program,
    Transition,
    dnf,
)
from .ir.linear import LinearConstraint
from .smt import SmtContext


class RankingValidationError(Exception):
    """A ranking function's multipliers do not certify one of its
    invariants: a soundness bug."""


@dataclass
class RankingFunction:
    coeffs: dict[str, dict[str, Fraction]]  # location -> var -> coefficient
    consts: dict[str, Fraction]
    decreasing: frozenset[str]  # transition ids counted (drop >= 1)
    # (transition id, guard-clause index, check) -> one multiplier per row
    multipliers: dict[tuple[str, int, str], tuple[Fraction, ...]] = field(default_factory=dict)

    def as_poly(self, loc: str) -> Polynomial:
        p = Polynomial.const(self.consts[loc])
        for v, c in self.coeffs[loc].items():
            p = p + Polynomial.var(v).scale(c)
        return p


def synthesize_lrf(
    p: Program,
    scope: list[Transition],
    decreasing: list[Transition],
    smt: SmtContext | None = None,
) -> RankingFunction | None:
    """A ranking function for ``decreasing`` within ``scope``, or None.

    None covers: constraint system unsatisfiable, solver unknown, or guard
    DNF exceeding the cap.
    """
    if not decreasing or not set(t.tid for t in decreasing) <= set(
        t.tid for t in scope
    ):
        raise ValueError("decreasing set must be a nonempty subset of the scope")
    smt = smt or SmtContext()
    decreasing_ids = {t.tid for t in decreasing}
    locations = sorted({t.src for t in scope} | {t.tgt for t in scope})

    # template variable names
    def c_var(loc: str, v: str) -> str:
        return f"c!{loc}!{v}"

    def c_const(loc: str) -> str:
        return f"c!{loc}!0"

    constraints: list[LinearConstraint] = []

    # non-linear updates pin the target-side coefficients to zero
    pinned: set[str] = set()
    for t in scope:
        for v, rhs in t.update.items():
            if rhs.degree() > 1:
                name = c_var(t.tgt, v)
                if name not in pinned:
                    pinned.add(name)
                    constraints.append(LinearConstraint.make({name: Fraction(1)}, 0, "="))

    mult_names: dict[tuple[str, int, str], list[str]] = {}
    mult_count = 0

    def implication(
        key: tuple[str, int, str],
        clause: tuple[Atom, ...],
        target: dict[str, dict[str, Fraction]],
        target_const: dict[str, Fraction],
        offset: Fraction,
    ) -> None:
        """Encode: clause  implies  (affine combination of templates) + offset >= 0.

        ``target`` maps template variable names to their per-program-variable
        coefficients, ``target_const`` to their constant contribution.
        """
        nonlocal mult_count
        rows = _linear_rows(clause)
        mults = mult_names[key] = [f"l!{mult_count + i}" for i in range(len(rows))]
        mult_count += len(rows)
        constraints.extend(LinearConstraint.make({name: 1}, 0, ">=") for name in mults)
        for v in sorted(p.vars):
            coeffs = {tmpl: per_var.get(v, 0) for tmpl, per_var in target.items()}
            coeffs.update((name, -row.coefficient(((v, 1),))) for name, row in zip(mults, rows))
            if any(coeffs.values()):
                constraints.append(LinearConstraint.make(coeffs, 0, "="))
        # constant row: target_const + offset - sum(mult * row_const) >= 0
        coeffs = dict(target_const)
        coeffs.update((name, -row.constant_term()) for name, row in zip(mults, rows))
        constraints.append(LinearConstraint.make(coeffs, offset, ">="))

    try:
        for t in scope:
            clauses = dnf(t.guard)
            delta = Fraction(1) if t.tid in decreasing_ids else Fraction(0)
            # f_src(x) - f_tgt(update(x)) - delta >= 0
            source = {c_var(t.src, v): {v: Fraction(1)} for v in p.vars}
            target = {name: dict(per_var) for name, per_var in source.items()}
            target_const = {c_const(t.src): Fraction(1)}
            for w in p.vars:
                rhs = t.update[w]
                if rhs.degree() > 1:
                    continue  # its coefficient is pinned to zero
                name = c_var(t.tgt, w)
                per_var = target.setdefault(name, {})
                for v in p.vars:
                    per_var[v] = per_var.get(v, 0) - rhs.coefficient(((v, 1),))
                target_const[name] = target_const.get(name, 0) - rhs.constant_term()
            target_const[c_const(t.tgt)] = target_const.get(c_const(t.tgt), 0) - 1
            for i, clause in enumerate(clauses):
                implication((t.tid, i, "drop"), clause, target, target_const, -delta)
                if t.tid in decreasing_ids:
                    implication((t.tid, i, "template value"), clause, source,
                                {c_const(t.src): Fraction(1)}, Fraction(-1))
    except DnfCapExceeded:
        return None

    result = smt.sat_real(constraints)
    if not result.is_sat:
        return None
    coeffs = {
        loc: {
            v: result.model.get(c_var(loc, v), Fraction(0)) for v in p.vars
        }
        for loc in locations
    }
    consts = {loc: result.model.get(c_const(loc), Fraction(0)) for loc in locations}
    multipliers = {key: tuple(result.model[name] for name in names)
                   for key, names in mult_names.items()}
    rf = RankingFunction(coeffs, consts, frozenset(decreasing_ids), multipliers)
    validate_rf(p, rf, scope)
    return rf


def _linear_rows(clause: tuple[Atom, ...]) -> list[Polynomial]:
    """The clause's linear atoms ``p > 0`` as rows ``p - 1 >= 0``, exact over
    the integers; non-linear atoms are dropped, which enlarges the region."""
    return [atom.poly - 1 for atom in clause if atom.poly.degree() <= 1]


def validate_rf(p: Program, rf: RankingFunction, scope: list[Transition]) -> None:
    """Each implication's quantity, recomputed from the templates, less its
    least value less its multipliers (one ``>= 0`` per row) times the guard
    clause's rows must leave a constant ``>= 0``.  Anything else would make
    every bound derived from *rf* unsound, so this raises, naming the rest."""
    template = {loc: rf.as_poly(loc) for loc in rf.consts}
    for t in scope:
        value = template[t.src]
        counted = t.tid in rf.decreasing
        checks = [("drop", value - template[t.tgt].substitute(t.update), 1 if counted else 0)]
        if counted:
            checks.append(("template value", value, 1))
        for i, clause in enumerate(dnf(t.guard)):
            rows = _linear_rows(clause)
            for what, quantity, least in checks:
                lams = rf.multipliers.get((t.tid, i, what), ())
                leftover = quantity - least
                for lam, row in zip(lams, rows):
                    leftover = leftover - row.scale(lam)
                if (len(lams) != len(rows) or any(lam < 0 for lam in lams)
                        or not leftover.is_const or leftover.const_value() < 0):
                    raise RankingValidationError(
                        f"{t.tid}: {what} on clause {i} leaves {leftover} under multipliers "
                        f"[{', '.join(map(str, lams))}] for {len(rows)} rows"
                    )


def rf_local_bound(rf: RankingFunction, entries: list[Transition]) -> Bound:
    """Local bound from a ranking function: counted steps from an entry state
    cannot exceed the entry value of the template, which the coefficient
    magnitudes bound at absolute-value states.  Distinct entry locations are
    summed (sum over-approximates max)."""
    seen: set[str] = set()
    parts: list[Bound] = []
    for r in entries:
        if r.tgt in seen:
            continue
        seen.add(r.tgt)
        parts.append(bound_of_poly(rf.as_poly(r.tgt)))
    return simplify(bsum(parts))
