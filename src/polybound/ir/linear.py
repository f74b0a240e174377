"""Affine constraint rows, the form of a ranking-synthesis query."""

from __future__ import annotations

from fractions import Fraction

from .. import _Value
from .poly import Polynomial


class LinearConstraint(_Value):
    """``sum(coeffs[v] * v) + const REL 0`` with REL ``=`` or ``>=``: the
    rows the ranking encoding builds and the bundled simplex solves."""

    __slots__ = ("coeffs", "const", "rel")

    def __init__(self, coeffs: tuple[tuple[str, Fraction], ...], const: Fraction, rel: str):
        if rel not in ("=", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        self.coeffs, self.const, self.rel = coeffs, const, rel

    @staticmethod
    def make(coeffs: dict[str, Fraction], const, rel: str) -> "LinearConstraint":
        items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0))
        return LinearConstraint(items, Fraction(const), rel)

    @staticmethod
    def from_poly(p: Polynomial, rel: str) -> "LinearConstraint":
        """The row ``p REL 0`` of an affine polynomial."""
        if p.degree() > 1:
            raise ValueError(f"not affine: {p}")
        coeffs = {v: p.coefficient(((v, 1),)) for v in p.variables()}
        return LinearConstraint.make(coeffs, p.constant_term(), rel)
