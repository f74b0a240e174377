import random
from fractions import Fraction

from hypothesis import given, strategies as st

from polybound.ir import Polynomial

x, y, z = Polynomial.var("x"), Polynomial.var("y"), Polynomial.var("z")


def test_zero_coefficients_not_stored():
    assert (x - x).is_zero
    assert (x * 0).is_zero
    assert Polynomial({((("x", 1)),): 0} if False else {}).is_zero


def test_arithmetic_basics():
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert (x + 1) ** 2 == x**2 + 2 * x + 1
    assert (x - y).evaluate({"x": 7, "y": 3}) == 4


def test_rational_coefficients_exact():
    p = x.scale(Fraction(1, 3)) + x.scale(Fraction(2, 3))
    assert p == x
    assert x.scale(Fraction(1, 2)).denominator_lcm() == 2
    assert x.is_integral() and not x.scale(Fraction(1, 2)).is_integral()


def test_substitute():
    p = x**2 + y
    assert p.substitute({"x": y, "y": Polynomial.const(1)}) == y**2 + 1
    # unmapped variables stay in place
    assert p.substitute({"y": z}) == x**2 + z


def test_degree_and_variables():
    assert (x**2 * y + z).degree() == 3
    assert Polynomial.zero().degree() == 0
    assert (x + y).variables() == frozenset({"x", "y"})


def test_canonical_printing():
    p = 9 * y - 8 * z**3
    assert str(p) == "-8*z^3 + 9*y"
    assert str(Polynomial.zero()) == "0"
    assert str(x - 1) == "x - 1"
    assert str(x.scale(Fraction(1, 2))) == "1/2*x"


coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def polynomials(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    p = Polynomial.const(rng.randint(-9, 9))
    for _ in range(rng.randint(0, 4)):
        mono = Polynomial.one()
        for _ in range(rng.randint(1, 3)):
            mono = mono * Polynomial.var(rng.choice("xyz"))
        p = p + mono.scale(rng.randint(-9, 9))
    return p


@given(polynomials(), polynomials(), st.integers(-10, 10), st.integers(-10, 10))
def test_ring_laws_on_samples(p, q, a, b):
    state = {"x": a, "y": b, "z": 1}
    assert (p + q).evaluate(state) == p.evaluate(state) + q.evaluate(state)
    assert (p * q).evaluate(state) == p.evaluate(state) * q.evaluate(state)
    assert (p + q) == (q + p)
    assert (p * q) == (q * p)
