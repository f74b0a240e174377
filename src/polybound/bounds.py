"""Weakly monotonic symbolic bounds over the extended naturals.

Bounds are built from natural constants, omega, variables, sums, products
and exponentials with constant natural base.  No subtraction and no negative
constants exist, so every bound is weakly monotonically increasing in every
variable, which is what makes substitution of bounds into bounds sound.

Conventions: omega absorbs under + and *, except that a product with a zero
factor is zero (0 * omega = 0), so an unreachable transition nullifies an
unknown local bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Mapping, Union


class _Omega:
    """Top element of the extended naturals: larger than every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ω"

    def __ge__(self, other) -> bool:
        return True

    def __gt__(self, other) -> bool:
        return not isinstance(other, _Omega)

    def __le__(self, other) -> bool:
        return isinstance(other, _Omega)

    def __lt__(self, other) -> bool:
        return False


OMEGA = _Omega()

ExtNat = Union[int, _Omega]


@dataclass(frozen=True, slots=True)
class Const:
    value: ExtNat

    def __post_init__(self):
        if isinstance(self.value, int) and self.value < 0:
            raise ValueError("bounds admit no negative constants")


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Sum:
    parts: tuple["Bound", ...]


@dataclass(frozen=True, slots=True)
class Prod:
    parts: tuple["Bound", ...]


@dataclass(frozen=True, slots=True)
class Exp:
    base: int  # natural base >= 1
    exponent: "Bound"

    def __post_init__(self):
        if self.base < 1:
            raise ValueError("exponential base must be >= 1")


Bound = Union[Const, Var, Sum, Prod, Exp]

ZERO = Const(0)
ONE = Const(1)
INFINITE = Const(OMEGA)


def bsum(parts) -> Bound:
    return _flatten(Sum, ZERO, parts)


def bprod(parts) -> Bound:
    return _flatten(Prod, ONE, parts)


def _flatten(kind, unit, parts) -> Bound:
    """``kind`` of ``parts`` with nested ``kind``s flattened; ``unit`` if
    there are none."""
    flat: list[Bound] = []
    for b in parts:
        if isinstance(b, kind):
            flat.extend(b.parts)
        else:
            flat.append(b)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return kind(tuple(flat))


def bound_of_poly(p) -> Bound:
    """Embed a polynomial: absolute values of coefficients, rounded up.

    For every integer state s: ``|s(p)| <= eval(bound_of_poly(p), |s|)``.
    """
    parts: list[Bound] = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        nat = mag.numerator if mag.denominator == 1 else ceil(mag)
        factors: list[Bound] = []
        if nat != 1 or not mono:
            factors.append(Const(nat))
        for v, e in mono:
            factors.extend(Var(v) for _ in range(e))
        parts.append(bprod(factors))
    return bsum(parts)


def bound_eval(b: Bound, state: Mapping[str, ExtNat]) -> ExtNat:
    """Evaluate at a nonnegative state; omega propagates, 0 * omega = 0."""
    if isinstance(b, Const):
        return b.value
    if isinstance(b, Var):
        value = state[b.name]
        if not isinstance(value, _Omega) and value < 0:
            raise ValueError(f"negative value for {b.name}")
        return value
    if isinstance(b, Sum):
        total = 0
        for part in b.parts:
            v = bound_eval(part, state)
            if isinstance(v, _Omega):
                return OMEGA
            total += v
        return total
    if isinstance(b, Prod):
        values = [bound_eval(part, state) for part in b.parts]
        if any(v == 0 for v in values):
            return 0
        if any(isinstance(v, _Omega) for v in values):
            return OMEGA
        total = 1
        for v in values:
            total *= v
        return total
    if isinstance(b, Exp):
        e = bound_eval(b.exponent, state)
        if isinstance(e, _Omega):
            return OMEGA if b.base >= 2 else 1
        return b.base**e
    raise TypeError(f"not a bound: {b!r}")


def bound_subst(b: Bound, mapping: Mapping[str, Bound]) -> Bound:
    """Compose bounds; monotonicity keeps the result a sound bound."""
    if isinstance(b, Const):
        return b
    if isinstance(b, Var):
        return mapping.get(b.name, b)
    if isinstance(b, Sum):
        return bsum(bound_subst(x, mapping) for x in b.parts)
    if isinstance(b, Prod):
        return bprod(bound_subst(x, mapping) for x in b.parts)
    return Exp(b.base, bound_subst(b.exponent, mapping))


def bound_vars(b: Bound) -> frozenset[str]:
    if isinstance(b, Const):
        return frozenset()
    if isinstance(b, Var):
        return frozenset((b.name,))
    if isinstance(b, Exp):
        return bound_vars(b.exponent)
    out: set[str] = set()
    for part in b.parts:
        out |= bound_vars(part)
    return frozenset(out)


def is_omega(b: Bound) -> bool:
    return isinstance(b, Const) and isinstance(b.value, _Omega)


def simplify(b: Bound) -> Bound:
    """Constant folding, neutral elements, omega absorption, flattening."""
    if isinstance(b, (Const, Var)):
        return b
    if isinstance(b, Exp):
        if b.base == 1:
            return ONE
        e = simplify(b.exponent)
        if isinstance(e, Const):
            if isinstance(e.value, _Omega):
                return INFINITE
            return Const(b.base**e.value)
        return Exp(b.base, e)
    parts = [simplify(x) for x in (b.parts if isinstance(b, (Sum, Prod)) else ())]
    if isinstance(b, Sum):
        flat: list[Bound] = []
        const_total = 0
        for x in parts:
            if isinstance(x, Sum):
                parts.extend(x.parts)  # rare: nested after child simplify
                continue
            if isinstance(x, Const):
                if isinstance(x.value, _Omega):
                    return INFINITE
                const_total += x.value
            else:
                flat.append(x)
        if const_total or not flat:
            flat.append(Const(const_total))
        return bsum(flat)
    # product
    flat = []
    const_total = 1
    saw_omega = False
    for x in parts:
        if isinstance(x, Prod):
            parts.extend(x.parts)
            continue
        if isinstance(x, Const):
            if isinstance(x.value, _Omega):
                saw_omega = True
            elif x.value == 0:
                return ZERO
            else:
                const_total *= x.value
        else:
            flat.append(x)
    if saw_omega:
        return INFINITE
    if const_total != 1 or not flat:
        flat.insert(0, Const(const_total))
    return bprod(flat)


# -- asymptotic classification ------------------------------------------------


@dataclass(frozen=True, slots=True)
class AsymptoticClass:
    kind: str  # "const" | "poly" | "exp" | "inf"
    degree: int = 0

    def __str__(self) -> str:
        if self.kind == "const":
            return "O(1)"
        if self.kind == "poly":
            return f"O(n^{self.degree})" if self.degree != 1 else "O(n)"
        if self.kind == "exp":
            return "O(EXP)"
        return "infinite"


_ORDER = {"const": 0, "poly": 1, "exp": 2, "inf": 3}


def asymptotic_class(b: Bound) -> AsymptoticClass:
    """Growth class of ``b`` as a function of n with every variable set to n."""
    kind, degree, zero = _classify(simplify(b))
    if kind == "poly" and degree == 0:
        kind = "const"
    return AsymptoticClass(kind, degree if kind == "poly" else 0)


def _classify(b: Bound) -> tuple[str, int, bool]:
    # returns (kind, poly degree, is the zero constant)
    if isinstance(b, Const):
        if isinstance(b.value, _Omega):
            return "inf", 0, False
        return "const", 0, b.value == 0
    if isinstance(b, Var):
        return "poly", 1, False
    if isinstance(b, Sum):
        kind, degree = "const", 0
        for part in b.parts:
            k, d, _ = _classify(part)
            if _ORDER[k] > _ORDER[kind]:
                kind = k
            degree = max(degree, d)
        return kind, degree if kind == "poly" else 0, False
    if isinstance(b, Prod):
        kind, degree = "const", 0
        for part in b.parts:
            k, d, z = _classify(part)
            if z:
                return "const", 0, True  # zero factor nullifies the product
            if _ORDER[k] > _ORDER[kind]:
                kind = k
            degree += d
        return kind, degree if kind == "poly" else 0, False
    # exponential
    k, d, z = _classify(b.exponent)
    if b.base == 1:
        return "const", 0, False
    if k == "inf":
        return "inf", 0, False
    if k == "const":
        return "const", 0, False
    return "exp", 0, False


# -- printing -----------------------------------------------------------------


def bound_str(b: Bound) -> str:
    """Grammar: ``ω | <nat> | <var> | b+b | b*b | k^(b)`` with explicit parens."""
    if isinstance(b, Const):
        return "ω" if isinstance(b.value, _Omega) else str(b.value)
    if isinstance(b, Var):
        return b.name
    if isinstance(b, Sum):
        return "+".join(bound_str(x) for x in b.parts)
    if isinstance(b, Prod):
        return "*".join(
            f"({bound_str(x)})" if isinstance(x, Sum) else bound_str(x)
            for x in b.parts
        )
    return f"{b.base}^({bound_str(b.exponent)})"
