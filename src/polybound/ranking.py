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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import Bound, bound_of_poly, bsum, simplify
from .ir import (
    Atom,
    DnfCapExceeded,
    Polynomial,
    Program,
    Transition,
    dnf,
    eval_formula,
)
from .ir.linear import LinearConstraint
from .smt import SmtContext

VALIDATION_SAMPLES = 1000
VALIDATION_DRAWS = 8000


class RankingValidationError(Exception):
    """Post-hoc sampling found a violated invariant: a soundness bug."""


@dataclass
class RankingFunction:
    coeffs: dict[str, dict[str, Fraction]]  # location -> var -> coefficient
    consts: dict[str, Fraction]
    decreasing: frozenset[str]  # transition ids counted (drop >= 1)
    scope: frozenset[str]

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

    mult_count = 0

    def implication(
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
        rows: list[Polynomial] = []
        for atom in clause:
            if atom.poly.degree() <= 1:
                rows.append(atom.poly - 1)  # p > 0 over Z
        mults = []
        for _ in rows:
            name = f"l!{mult_count}"
            mult_count += 1
            mults.append(name)
            constraints.append(LinearConstraint.make({name: Fraction(1)}, 0, ">="))
        program_vars = sorted(p.vars)
        for v in program_vars:
            coeffs: dict[str, Fraction] = {}
            for tmpl, per_var in target.items():
                c = per_var.get(v, Fraction(0))
                if c:
                    coeffs[tmpl] = coeffs.get(tmpl, Fraction(0)) + c
            for name, row in zip(mults, rows):
                rc = row.coefficient(((v, 1),))
                if rc:
                    coeffs[name] = coeffs.get(name, Fraction(0)) - rc
            if coeffs:
                constraints.append(LinearConstraint.make(coeffs, 0, "="))
        # constant row: target_const + offset - sum(mult * row_const) >= 0
        coeffs = dict(target_const)
        for name, row in zip(mults, rows):
            rc = row.constant_term()
            if rc:
                coeffs[name] = coeffs.get(name, Fraction(0)) - rc
        constraints.append(LinearConstraint.make(coeffs, offset, ">="))

    try:
        for t in scope:
            clauses = dnf(t.guard)
            delta = Fraction(1) if t.tid in decreasing_ids else Fraction(0)
            # f_src(x) - f_tgt(update(x)) - delta >= 0
            target: dict[str, dict[str, Fraction]] = {}
            target_const: dict[str, Fraction] = {}
            for v in p.vars:
                target.setdefault(c_var(t.src, v), {})[v] = Fraction(1)
            target_const[c_const(t.src)] = Fraction(1)
            for w in p.vars:
                rhs = t.update[w]
                if rhs.degree() > 1:
                    continue  # its coefficient is pinned to zero
                for v in p.vars:
                    c = rhs.coefficient(((v, 1),))
                    if c:
                        target.setdefault(c_var(t.tgt, w), {})[v] = (
                            target.setdefault(c_var(t.tgt, w), {}).get(v, Fraction(0))
                            - c
                        )
                const = rhs.constant_term()
                if const:
                    target_const[c_var(t.tgt, w)] = (
                        target_const.get(c_var(t.tgt, w), Fraction(0)) - const
                    )
            target_const[c_const(t.tgt)] = (
                target_const.get(c_const(t.tgt), Fraction(0)) - 1
            )
            for clause in clauses:
                implication(clause, target, target_const, -delta)
                if t.tid in decreasing_ids:
                    nonneg_target = {
                        c_var(t.src, v): {v: Fraction(1)} for v in p.vars
                    }
                    implication(
                        clause, nonneg_target, {c_const(t.src): Fraction(1)}, Fraction(-1)
                    )
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
    rf = RankingFunction(coeffs, consts, frozenset(decreasing_ids),
                         frozenset(t.tid for t in scope))
    validate_rf(p, rf, scope)
    return rf


def validate_rf(p: Program, rf: RankingFunction, scope: list[Transition]) -> None:
    """Check the invariants on random guard-satisfying states; loud on failure.

    A violation means the synthesized certificate is wrong, which would make
    every bound derived from it unsound, so this raises instead of degrading.
    """
    rng = random.Random(0)
    template = {loc: rf.as_poly(loc) for loc in rf.consts}
    for t in scope:
        checked = 0
        for _ in range(VALIDATION_DRAWS):
            if checked >= VALIDATION_SAMPLES:
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
                raise RankingValidationError(
                    f"{t.tid}: drop {drop} below {needed} at {state}"
                )
            if t.tid in rf.decreasing and value < 1:
                raise RankingValidationError(
                    f"{t.tid}: template value below 1 at {state}"
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
