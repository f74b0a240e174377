import random
from fractions import Fraction

from hypothesis import given, strategies as st

from polybound.ir import Polynomial, poly

from conftest import random_polynomial

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


def reference_evaluate(p: Polynomial, state) -> Fraction:
    total = Fraction(0)
    for mono, coeff in p.items():
        value = coeff
        for v, e in mono:
            value *= Fraction(state[v]) ** e
        total += value
    return total


@given(st.integers(0, 10**6))
def test_evaluate_matches_fraction_reference(seed):
    rng = random.Random(seed)
    p = sum(
        (random_polynomial(rng, "xyz", max_monomials=3).scale(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
         for _ in range(3)),
        Polynomial.zero(),
    )
    int_state = {v: rng.randint(-50, 50) for v in "xyz"}
    frac_state = {v: Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for v in "xyz"}
    for state in (int_state, frac_state, {**int_state, "y": frac_state["y"]}):
        value = p.evaluate(state)
        assert isinstance(value, Fraction)
        assert value == reference_evaluate(p, state)


def test_shared_variables_stay_bounded():
    assert Polynomial.var("x") is Polynomial.var("x")
    for i in range(5000):
        assert Polynomial.var(f"v{i}") == Polynomial({((f"v{i}", 1),): 1})
    assert len(poly._VARS) <= 4096
