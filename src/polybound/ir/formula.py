"""Guard formulas: positive boolean combinations of strict polynomial atoms.

``Atom(p)`` means ``p > 0`` over the integers.  Formulas are negation free;
relations other than ``>`` and all negations are compiled away by
:func:`normalize_atom` and the parser.  The trivially true formula is the
atom ``1 > 0``; the zero polynomial gives the trivially false atom.

Atoms clear rational denominators on construction (scaling by a positive
constant preserves the sign), so every stored atom has integer coefficients
and ``p > 0`` is equivalent to ``p >= 1``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from .. import _Value
from .poly import Polynomial


class DnfCapExceeded(Exception):
    """Raised when DNF expansion would exceed the configured clause cap."""

    def __init__(self, cap: int):
        super().__init__(f"DNF expansion needs more than {cap} clauses")


class Atom(_Value):
    __slots__ = ("poly",)

    def __init__(self, poly: Polynomial):
        scale = poly.denominator_lcm()
        self.poly = poly.scale(scale) if scale != 1 else poly

    @property
    def is_const(self) -> bool:
        return self.poly.is_const

    def holds(self, state: Mapping[str, int]) -> bool:
        return self.poly.evaluate(state) > 0


class And(_Value):
    __slots__ = ("children",)

    def __init__(self, children: tuple["Formula", ...]):
        self.children = children


class Or(_Value):
    __slots__ = ("children",)

    def __init__(self, children: tuple["Formula", ...]):
        self.children = children


Formula = Atom | And | Or

TRUE = Atom(Polynomial.one())
FALSE = Atom(Polynomial.zero())


def mk_and(children) -> Formula:
    return _junction(And, TRUE, FALSE, children)


def mk_or(children) -> Formula:
    return _junction(Or, FALSE, TRUE, children)


def _junction(kind, unit, absorbing, children) -> Formula:
    """``kind`` of ``children`` with nested ``kind``s flattened and ``unit``
    dropped; ``absorbing`` if a child is."""
    flat: list[Formula] = []
    for c in children:
        if isinstance(c, kind):
            flat.extend(c.children)
        elif c == unit:
            continue
        elif c == absorbing:
            return absorbing
        else:
            flat.append(c)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return kind(tuple(flat))


def normalize_atom(lhs: Polynomial, rel: str, rhs: Polynomial) -> Formula:
    """Translate ``lhs REL rhs`` into a negation-free formula over atoms.

    Integer-exact translations: ``a <= b`` becomes ``b - a + 1 > 0``, equality
    expands to two inequalities and disequality to a disjunction.
    """
    if rel == "<":
        return Atom(rhs - lhs)
    if rel == ">":
        return Atom(lhs - rhs)
    if rel == "<=":
        return Atom(rhs - lhs + 1)
    if rel == ">=":
        return Atom(lhs - rhs + 1)
    if rel == "=":
        return mk_and([Atom(rhs - lhs + 1), Atom(lhs - rhs + 1)])
    if rel == "!=":
        return mk_or([Atom(lhs - rhs), Atom(rhs - lhs)])
    raise ValueError(f"unknown relation {rel!r}")


NEGATED_REL = {"<": ">=", ">": "<=", "<=": ">", ">=": "<", "=": "!=", "!=": "="}


def eval_formula(f: Formula, state: Mapping[str, int]) -> bool:
    if isinstance(f, Atom):
        return f.holds(state)
    if isinstance(f, And):
        return all(eval_formula(c, state) for c in f.children)
    return any(eval_formula(c, state) for c in f.children)


def atoms(f: Formula) -> Iterator[Atom]:
    if isinstance(f, Atom):
        yield f
    else:
        for c in f.children:
            yield from atoms(c)


def map_atoms(f: Formula, fn: Callable[[Atom], Formula]) -> Formula:
    if isinstance(f, Atom):
        return fn(f)
    mapped = [map_atoms(c, fn) for c in f.children]
    return mk_and(mapped) if isinstance(f, And) else mk_or(mapped)


def substitute(f: Formula, mapping: Mapping[str, Polynomial]) -> Formula:
    return map_atoms(f, lambda a: Atom(a.poly.substitute(mapping)))


def formula_vars(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    for a in atoms(f):
        out |= a.poly.variables()
    return frozenset(out)


def dnf(f: Formula, cap: int = 64) -> list[tuple[Atom, ...]]:
    """Expand to a list of clauses (conjunctions of atoms).

    The disjunction of the returned clauses is equivalent to ``f``.  Constant
    atoms are resolved: true atoms are dropped from clauses, clauses holding a
    false atom are dropped entirely.  The empty clause is the true clause.
    """
    clauses = _dnf(f, cap)
    return [tuple(c) for c in clauses]


def _dnf(f: Formula, cap: int) -> list[list[Atom]]:
    if isinstance(f, Atom):
        if f.is_const:
            return [[]] if f.holds({}) else []
        return [[f]]
    if isinstance(f, Or):
        out: list[list[Atom]] = []
        for c in f.children:
            out.extend(_dnf(c, cap))
            if len(out) > cap:
                raise DnfCapExceeded(cap)
        return out
    # And: distribute
    result: list[list[Atom]] = [[]]
    for c in f.children:
        sub = _dnf(c, cap)
        merged: list[list[Atom]] = []
        for left in result:
            for right in sub:
                clause = list(left)
                for a in right:
                    if a not in clause:
                        clause.append(a)
                merged.append(clause)
                if len(merged) > cap:
                    raise DnfCapExceeded(cap)
        result = merged
    return result
