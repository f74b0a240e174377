"""Poly-exponential expressions and exact symbolic summation kernels.

A poly-exponential expression is a finite sum of addends ``q * n^a * b^n``
with ``q`` a polynomial over the program variables (rational coefficients),
``a`` a natural number and ``b`` a natural base >= 1.  Addends are stored
with pairwise distinct ``(a, b)`` pairs, sorted ascending by asymptotic
order (base major, exponent minor), and never with ``q = 0``, so equal
functions built along different routes compare equal structurally.

The two summation kernels are solved exactly from an ansatz by sampling:
a degree bound plus enough sample points pins the coefficients down via a
rational linear solve, which keeps the kernels free of Bernoulli-number
tables while remaining uniformly testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .ir import Polynomial

# Reserved symbol for the iteration counter inside kernel results.  The
# polynomials returned by `faulhaber` / `sum_geo_poly` are univariate in it
# and are destructured into per-power coefficients immediately, so it never
# clashes with program variables.
N = "n"

Addend = tuple[Polynomial, int, int]  # (q, a, b)


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

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for q, _, _ in self.addends:
            out |= q.variables()
        return frozenset(out)


PE_ZERO = PolyExp(())


def _canonical(raw: dict[tuple[int, int], Polynomial]) -> PolyExp:
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
    raw: dict[tuple[int, int], Polynomial] = {(a, b): q for q, a, b in x.addends}
    for q, a, b in y.addends:
        key = (a, b)
        raw[key] = raw[key] + q if key in raw else q
    return _canonical(raw)


def pe_scale(x: PolyExp, factor) -> PolyExp:
    f = Fraction(factor)
    if f == 0:
        return PE_ZERO
    return PolyExp(tuple((q.scale(f), a, b) for q, a, b in x.addends))


def pe_mul(x: PolyExp, y: PolyExp) -> PolyExp:
    """Bases merge multiplicatively, powers of n additively."""
    raw: dict[tuple[int, int], Polynomial] = {}
    for q1, a1, b1 in x.addends:
        for q2, a2, b2 in y.addends:
            key = (a1 + a2, b1 * b2)
            prod = q1 * q2
            raw[key] = raw[key] + prod if key in raw else prod
    return _canonical(raw)


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
    total = Fraction(0)
    for q, a, b in x.addends:
        total += q.evaluate(state) * Fraction(n) ** a * Fraction(b) ** n
    return total


def pe_shift(x: PolyExp, j: int) -> PolyExp:
    """The function ``m -> x(m - j)`` as a poly-exponential expression."""
    if j == 0:
        return x
    raw: dict[tuple[int, int], Polynomial] = {}
    for q, a, b in x.addends:
        scale = Fraction(1, b**j) if j > 0 else Fraction(b ** (-j))
        # (n - j)^a expanded binomially
        for i in range(a + 1):
            c = _binom(a, i) * Fraction(-j) ** (a - i) * scale
            if c == 0:
                continue
            key = (i, b)
            contribution = q.scale(c)
            raw[key] = raw[key] + contribution if key in raw else contribution
    return _canonical(raw)


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


def _binom(a: int, i: int) -> Fraction:
    from math import comb

    return Fraction(comb(a, i))


# -- exact linear solving for the kernel ansatz ------------------------------


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Q; the kernel systems are always regular."""
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    size = len(matrix)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


def faulhaber(a: int) -> Polynomial:
    """Polynomial F with ``F(n) = sum_{k=0}^{n-1} k^a`` for all n >= 0.

    Degree a+1 with F(0) = 0; found by solving the ansatz on the sample
    points n = 0 .. a+1 (0^0 counts as 1, so F(n) = n for a = 0).
    """
    if a < 0:
        raise ValueError("exponent must be natural")
    degree = a + 1
    points = list(range(degree + 1))
    matrix = [[Fraction(n) ** d for d in range(degree + 1)] for n in points]
    rhs = [Fraction(sum(k**a for k in range(n))) for n in points]
    coeffs = solve_linear(matrix, rhs)
    poly = Polynomial.zero()
    for d, c in enumerate(coeffs):
        poly = poly + Polynomial({((N, d),) if d else (): c})
    return poly


def sum_geo_poly(a: int, rho: Fraction) -> tuple[Polynomial, Fraction]:
    """Exact ``(P, K)`` with ``sum_{k=0}^{n-1} k^a rho^k = P(n) rho^n + K``.

    Requires ``rho >= 0`` and ``rho != 1``; P has degree a.  Solved from the
    ansatz on the sample points n = 0 .. a+1.
    """
    rho = Fraction(rho)
    if rho == 1:
        raise ValueError("geometric ratio must differ from 1")
    if rho < 0:
        raise ValueError("geometric ratio must be nonnegative")
    # unknowns: P coefficients (degree a) then K
    points = list(range(a + 2))
    matrix = []
    rhs = []
    for n in points:
        row = [Fraction(n) ** d * rho**n for d in range(a + 1)]
        row.append(Fraction(1))
        matrix.append(row)
        total = Fraction(0)
        for k in range(n):
            total += (Fraction(k) ** a if a else Fraction(1)) * rho**k
        rhs.append(total)
    coeffs = solve_linear(matrix, rhs)
    poly = Polynomial.zero()
    for d in range(a + 1):
        poly = poly + Polynomial({((N, d),) if d else (): coeffs[d]})
    return poly, coeffs[a + 1]


def poly_in_n_to_powers(p: Polynomial) -> list[tuple[int, Fraction]]:
    """Destructure a univariate polynomial in the reserved counter symbol."""
    out = []
    for mono, coeff in p.items():
        if not mono:
            out.append((0, coeff))
        elif len(mono) == 1 and mono[0][0] == N:
            out.append((mono[0][1], coeff))
        else:
            raise ValueError(f"not univariate in {N}: {p}")
    out.sort()
    return out
