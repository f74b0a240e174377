"""Linear ranking functions for subprograms, synthesized via duality.

One affine template per location, held in one form throughout: a
:class:`~polybound.ir.Polynomial` over the program variables, read off the
solver's model.  For every transition in scope and every disjunct of its
guard, two implications are required: the template value never increases
along the transition (and drops by at least 1 on the transitions being
counted), and it is at least 1 whenever a counted transition fires, so its
value at an entry state bounds the counted steps.  Each implication "guard
atoms imply affine inequality" is witnessed by nonnegative multipliers: the
implied inequality must equal a nonnegative combination of the guard rows
plus a nonnegative constant, which turns synthesis into constraint solving
over the template coefficients and multipliers.  While they are unknown,
each implication's quantity maps every template coefficient to the affine
polynomial it multiplies.

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
from itertools import count

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
    templates: dict[str, Polynomial]  # location -> affine template
    decreasing: frozenset[str]  # transition ids counted (drop >= 1)
    # (transition id, guard-clause index, check) -> one multiplier per row
    multipliers: dict[tuple[str, int, str], tuple[Fraction, ...]] = field(default_factory=dict)


def synthesize_lrf(
    p: Program,
    scope: list[Transition],
    decreasing: list[Transition],
    smt: SmtContext,
) -> RankingFunction | None:
    """A ranking function for ``decreasing`` within ``scope``, or None.

    None covers: constraint system unsatisfiable, solver unknown, or guard
    DNF exceeding the cap.
    """
    if not decreasing or not set(t.tid for t in decreasing) <= set(
        t.tid for t in scope
    ):
        raise ValueError("decreasing set must be a nonempty subset of the scope")
    decreasing_ids = {t.tid for t in decreasing}
    locations = sorted({t.src for t in scope} | {t.tgt for t in scope})

    def template(loc: str) -> dict[str, Polynomial]:
        """The template at ``loc``: each unknown coefficient with its factor."""
        factors = {f"c!{loc}!{v}": Polynomial.var(v) for v in p.vars}
        factors[f"c!{loc}!0"] = Polynomial.one()
        return factors

    # non-linear updates pin the target-side coefficients to zero
    pinned = dict.fromkeys(f"c!{t.tgt}!{v}" for t in scope
                           for v, rhs in t.update.items() if rhs.degree() > 1)
    constraints = [LinearConstraint.make({name: 1}, 0, "=") for name in pinned]
    mult_names: dict[tuple[str, int, str], list[str]] = {}
    mult_ids = count()
    monos = [((v, 1),) for v in sorted(p.vars)]

    def implication(
        key: tuple[str, int, str],
        clause: tuple[Atom, ...],
        quantity: dict[str, Polynomial],
        offset: int,
    ) -> None:
        """Encode: clause  implies  sum(unknown * factor) + offset >= 0, the
        sum over ``quantity``'s unknowns and their affine factors."""
        rows = _linear_rows(clause)
        mults = mult_names[key] = [f"l!{next(mult_ids)}" for _ in rows]
        constraints.extend(LinearConstraint.make({name: 1}, 0, ">=") for name in mults)
        for mono in monos:
            coeffs = {name: factor.coefficient(mono) for name, factor in quantity.items()}
            coeffs.update((name, -row.coefficient(mono)) for name, row in zip(mults, rows))
            if any(coeffs.values()):
                constraints.append(LinearConstraint.make(coeffs, 0, "="))
        # constant row: the quantity's constant + offset - sum(mult * row_const) >= 0
        coeffs = {name: factor.constant_term() for name, factor in quantity.items()}
        coeffs.update((name, -row.constant_term()) for name, row in zip(mults, rows))
        constraints.append(LinearConstraint.make(coeffs, offset, ">="))

    try:
        for t in scope:
            counted = t.tid in decreasing_ids
            # f_src(x) - f_tgt(update(x)), without the pinned coefficients' terms
            value = template(t.src)
            drop = dict(value)
            images = {f"c!{t.tgt}!{w}": t.update[w] for w in p.vars if t.update[w].degree() <= 1}
            images[f"c!{t.tgt}!0"] = Polynomial.one()
            for name, image in images.items():
                drop[name] = drop[name] - image if name in drop else -image
            for i, clause in enumerate(dnf(t.guard)):
                implication((t.tid, i, "drop"), clause, drop, -1 if counted else 0)
                if counted:
                    implication((t.tid, i, "template value"), clause, value, -1)
    except DnfCapExceeded:
        return None

    result = smt.sat_real(constraints)
    if not result.is_sat:
        return None
    templates = {loc: sum(factor.scale(result.model.get(name, 0))
                          for name, factor in template(loc).items())
                 for loc in locations}
    multipliers = {key: tuple(result.model[name] for name in names)
                   for key, names in mult_names.items()}
    rf = RankingFunction(templates, frozenset(decreasing_ids), multipliers)
    validate_rf(rf, scope)
    return rf


def _linear_rows(clause: tuple[Atom, ...]) -> list[Polynomial]:
    """The clause's linear atoms ``p > 0`` as rows ``p - 1 >= 0``, exact over
    the integers; non-linear atoms are dropped, which enlarges the region."""
    return [atom.poly - 1 for atom in clause if atom.poly.degree() <= 1]


def validate_rf(rf: RankingFunction, scope: list[Transition]) -> None:
    """Each implication's quantity, recomputed from the templates, less its
    least value less its multipliers (one ``>= 0`` per row) times the guard
    clause's rows must leave a constant ``>= 0``.  Anything else would make
    every bound derived from *rf* unsound, so this raises, naming the rest."""
    for t in scope:
        value = rf.templates[t.src]
        counted = t.tid in rf.decreasing
        checks = [("drop", value - rf.templates[t.tgt].substitute(t.update), 1 if counted else 0)]
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
        parts.append(bound_of_poly(rf.templates[r.tgt]))
    return simplify(bsum(parts))
