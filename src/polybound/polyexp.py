"""Poly-exponential expressions and their exact summation kernel.

A poly-exponential expression is a finite sum of addends ``q * n^a * b^n``
with ``q`` a polynomial over the program variables (rational coefficients),
``a`` a natural number and ``b`` a natural base >= 1.  Addends are stored
with pairwise distinct ``(a, b)`` pairs, sorted ascending by asymptotic
order (base major, exponent minor), and never with ``q = 0``, so equal
functions built along different routes compare equal structurally.

The summation kernel ``power_sum`` gives ``sum_{k<n} k^a r^k`` exactly, as
a polynomial in n times ``r^n`` plus a constant, from a recurrence over the
exponent that telescopes ``(k+1)^j r^(k+1) - k^j r^k`` over ``k < n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Mapping

from .ir import Polynomial

Addend = tuple[Polynomial, int, int]  # (q, a, b)

# A product may expand to the terms of one factor times those of the other;
# past this many it is refused, as the parser refuses large expansions.  The
# largest bound the benchmark's inputs reach is 100, the test suite's closed
# forms 7,308 and its power test 25,245.
MAX_PRODUCT_TERMS = 30_000


class ClosedFormTooLarge(Exception):
    """A product of poly-exponential expressions past ``MAX_PRODUCT_TERMS``."""


@dataclass(frozen=True)
class PolyExp:
    addends: tuple[Addend, ...]  # canonical: sorted by (b, a), q != 0

    def __str__(self) -> str:
        if not self.addends:
            return "0"
        parts = []
        for q, a, b in reversed(self.addends):  # dominant addend first
            factors = []
            qs = str(q)
            factors.append(f"({qs})" if ("+" in qs or "-" in qs[1:]) else qs)
            if a == 1:
                factors.append("n")
            elif a > 1:
                factors.append(f"n^{a}")
            if b != 1:
                factors.append(f"{b}^n")
            parts.append(" * ".join(factors))
        return " + ".join(parts)


PE_ZERO = PolyExp(())


def _canonical(pairs) -> PolyExp:
    """The sum of ``((a, b), q)`` pairs: coefficients of equal ``(a, b)`` are
    added in the order given, zero ones dropped."""
    raw: dict[tuple[int, int], Polynomial] = {}
    for key, q in pairs:
        raw[key] = raw[key] + q if key in raw else q
    addends = [
        (q, a, b) for (a, b), q in raw.items() if not q.is_zero
    ]
    addends.sort(key=lambda t: (t[2], t[1]))
    return PolyExp(tuple(addends))


def pe_of_poly(p: Polynomial) -> PolyExp:
    if p.is_zero:
        return PE_ZERO
    return PolyExp(((p, 0, 1),))


def pe_const(c) -> PolyExp:
    return pe_of_poly(Polynomial.const(c))


def pe_add(x: PolyExp, y: PolyExp) -> PolyExp:
    return _canonical(((a, b), q) for q, a, b in x.addends + y.addends)


def pe_scale(x: PolyExp, factor) -> PolyExp:
    """``factor * x`` for a nonzero ``factor``."""
    f = Fraction(factor)
    return PolyExp(tuple((q.scale(f), a, b) for q, a, b in x.addends))


def pe_mul(x: PolyExp, y: PolyExp) -> PolyExp:
    """Bases merge multiplicatively, powers of n additively."""
    bound = _term_count(x) * _term_count(y)
    if bound > MAX_PRODUCT_TERMS:
        raise ClosedFormTooLarge(f"product of up to {bound} terms, above the cap of "
                                 f"{MAX_PRODUCT_TERMS}")
    return _canonical(
        ((a1 + a2, b1 * b2), q1 * q2)
        for q1, a1, b1 in x.addends
        for q2, a2, b2 in y.addends
    )


def _term_count(x: PolyExp) -> int:
    return sum(q.term_count() for q, _, _ in x.addends)


def pe_pow(x: PolyExp, exp: int) -> PolyExp:
    if exp < 0:
        raise ValueError("negative power")
    result = pe_const(1)
    base = x
    while exp:
        if exp & 1:
            result = pe_mul(result, base)
        exp >>= 1
        if exp:
            base = pe_mul(base, base)
    return result


def pe_substitute(p: Polynomial, assignment: Mapping[str, PolyExp]) -> PolyExp:
    """Compose ``p`` with per-variable poly-exponential expressions."""
    result = PE_ZERO
    for mono, coeff in p.items():
        term = pe_const(coeff)
        for v, e in mono:
            term = pe_mul(term, pe_pow(assignment[v], e))
        result = pe_add(result, term)
    return result


def pe_eval(x: PolyExp, state: Mapping[str, int], n: int) -> Fraction:
    return sum((q.evaluate(state) * n**a * b**n for q, a, b in x.addends), Fraction(0))


def pe_shift(x: PolyExp, j: int) -> PolyExp:
    """The function ``m -> x(m - j)`` as a poly-exponential expression:
    ``(n - j)^a`` is expanded binomially and ``b^(n - j)`` is ``b^n / b^j``."""
    return _canonical(
        ((i, b), q.scale(comb(a, i) * Fraction(-j) ** (a - i) / Fraction(b) ** j))
        for q, a, b in x.addends
        for i in range(a + 1)
    )


def pe_normalize_integer(x: PolyExp) -> tuple[int, PolyExp]:
    """Clear denominators: return ``(lam, lam * x)`` with integer coefficients.

    The scale factor is positive, so the result has the same sign as ``x``
    pointwise, and any nonzero coefficient polynomial evaluates to an integer
    of magnitude >= 1 at integer states.
    """
    scale = 1
    for q, _, _ in x.addends:
        scale = lcm(scale, q.denominator_lcm())
    if scale == 1:
        return 1, x
    return scale, pe_scale(x, scale)


def power_sum(a: int, r: Fraction) -> tuple[list[Fraction], Fraction]:
    """``(P, K)`` with ``sum_{k<n} k^a r^k = (sum_d P[d] n^d) r^n + K`` for
    all n >= 0 (``0^0`` counts as 1), for a natural ``a`` and ``r > 0``.

    Let S_j be the sum for exponent j.  Summing ``(k+1)^(j+1) - k^(j+1)``
    over ``k < n`` gives, for ``r = 1``,
    ``S_j = (n^(j+1) - sum_{i<j} C(j+1,i) S_i) / (j+1)`` (so K = 0), and
    summing ``(k+1)^j r^(k+1) - k^j r^k`` gives, otherwise,
    ``S_j = (n^j r^n - [j=0] - r sum_{i<j} C(j,i) S_i) / (r-1)``.
    """
    one = r == 1
    sums: list[tuple[list[Fraction], Fraction]] = []
    for j in range(a + 1):
        p = [Fraction(0)] * (j + 1 if one else j) + [Fraction(1)]
        k = Fraction(0 if one or j else -1)
        for i, (q, kq) in enumerate(sums):
            w = comb(j + 1, i) if one else r * comb(j, i)
            for d, x in enumerate(q):
                p[d] -= w * x
            k -= w * kq
        div = j + 1 if one else r - 1
        sums.append(([x / div for x in p], k / div))
    return sums[a]
