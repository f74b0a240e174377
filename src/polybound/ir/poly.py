"""Exact multivariate polynomial arithmetic with rational coefficients.

A monomial is a sorted tuple of ``(variable, exponent)`` pairs with positive
exponents; the empty tuple is the constant monomial.  Coefficients are
:class:`fractions.Fraction` values and zero coefficients are never stored, so
structural equality coincides with mathematical equality and printing is
deterministic.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import lcm

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by variable name
Scalar = int | Fraction

_ZERO = Fraction(0)
_CONST_MONO: Monomial = ()
_VARS: dict[str, "Polynomial"] = {}


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[str, int] = {}
    for v, e in m1:
        exps[v] = exps.get(v, 0) + e
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class Polynomial:
    """Immutable polynomial in ``Q[V]``; variables are plain strings."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                # Fractions are immutable, so one already built is kept
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c != 0:
                    cleaned[mono] = c
        self._terms = cleaned

    # -- constructors ------------------------------------------------

    @staticmethod
    def const(value: Scalar) -> "Polynomial":
        return Polynomial({_CONST_MONO: Fraction(value)})

    @staticmethod
    def var(name: str) -> "Polynomial":
        if not name:
            raise ValueError("variable name must be nonempty")
        if name not in _VARS:  # immutable, so one instance per name is shared
            if len(_VARS) >= 4096:  # a bound, for processes seeing many names
                _VARS.clear()
            _VARS[name] = Polynomial({((name, 1),): Fraction(1)})
        return _VARS[name]

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.const(1)

    # -- queries -----------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _CONST_MONO in self._terms)

    def const_value(self) -> Fraction:
        if not self.is_const:
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get(_CONST_MONO, _ZERO)

    def constant_term(self) -> Fraction:
        return self._terms.get(_CONST_MONO, _ZERO)

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(_mono_degree(m) for m in self._terms)

    def variables(self) -> frozenset[str]:
        return frozenset(v for m in self._terms for v, _ in m)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    def denominator_lcm(self) -> int:
        result = 1
        for c in self._terms.values():
            result = lcm(result, c.denominator)
        return result

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = terms.get(mono, _ZERO) + coeff
            if new == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = new
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-_coerce(other))

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                new = terms.get(mono, _ZERO) + c1 * c2
                if new == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = new
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def scale(self, factor: Scalar) -> "Polynomial":
        f = Fraction(factor)
        return Polynomial({m: c * f for m, c in self._terms.items()})

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials; unmapped variables stay."""
        result = Polynomial.zero()
        for mono, coeff in self._terms.items():
            factor = Polynomial.const(coeff)
            for v, e in mono:
                base = mapping.get(v)
                if base is None:
                    base = Polynomial.var(v)
                factor = factor * base**e
            result = result + factor
        return result

    def evaluate(self, state: Mapping[str, Scalar]) -> Fraction:
        """The value at *state*.  Coefficient denominators are cleared once,
        the terms summed in ``int`` arithmetic (a ``Fraction`` in the state
        keeps the sum exact) and divided back at the end."""
        den = self.denominator_lcm()
        total = 0
        for mono, coeff in self._terms.items():
            value = coeff.numerator * (den // coeff.denominator)
            for v, e in mono:
                value *= state[v] ** e
            total += value
        return Fraction(total, den)

    def evaluate_int(self, state: Mapping[str, Scalar]) -> int:
        value = self.evaluate(state)
        if value.denominator != 1:
            raise ValueError(f"non-integer value {value} for {self}")
        return value.numerator

    # -- canonical form ------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: (-_mono_degree(kv[0]), kv[0]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _coerce(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.const(value)
