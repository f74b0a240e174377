"""Affine constraint rows, the form of a ranking-synthesis query."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial


@dataclass(frozen=True, slots=True)
class LinearConstraint:
    """``sum(coeffs[v] * v) + const REL 0`` with REL in {=, >=, >}."""

    coeffs: tuple[tuple[str, Fraction], ...]
    const: Fraction
    rel: str

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
