import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polybound import polyexp
from polybound.ir import Polynomial
from polybound.polyexp import (
    PE_ZERO,
    PolyExp,
    pe_add,
    pe_eval,
    pe_mul,
    pe_normalize_integer,
    pe_of_poly,
    pe_pow,
    pe_shift,
    pe_substitute,
    power_sum,
)

from conftest import random_polynomial

x1, x2, x3 = (Polynomial.var(v) for v in ("x1", "x2", "x3"))
x = Polynomial.var("x")
N_RANGE = range(0, 26)
EXPONENTS = range(0, 7)


def power_sum_at(a: int, r: Fraction, n: int) -> Fraction:
    coeffs, k_const = power_sum(a, r)
    return sum((c * n**d for d, c in enumerate(coeffs)), Fraction(0)) * r**n + k_const


def direct_sum(a: int, r: Fraction, n: int) -> Fraction:
    return sum((Fraction(k) ** a * r**k for k in range(n)), Fraction(0))


# Ratio 1 is Faulhaber's sum of powers: a polynomial of degree a + 1.
@pytest.mark.parametrize("a", EXPONENTS)
def test_faulhaber_matches_direct_summation(a):
    coeffs, k_const = power_sum(a, Fraction(1))
    for n in N_RANGE:
        assert power_sum_at(a, Fraction(1), n) == sum(k**a for k in range(n))
    assert k_const == 0 and coeffs[0] == 0
    assert len(coeffs) == a + 2 and coeffs[-1] != 0


def test_faulhaber_small_cases():
    assert power_sum(0, Fraction(1)) == ([0, 1], 0)
    assert power_sum(1, Fraction(1)) == ([0, Fraction(-1, 2), Fraction(1, 2)], 0)
    assert power_sum(2, Fraction(1)) == (
        [0, Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)], 0
    )


# Any other ratio: a polynomial of degree a times r^n, plus a constant.
@pytest.mark.parametrize("a", EXPONENTS)
@pytest.mark.parametrize(
    "rho",
    [Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(1, 9),
     Fraction(4, 3), Fraction(5, 7)],
)
def test_sum_geo_poly_matches_direct_summation(a, rho):
    coeffs, _ = power_sum(a, rho)
    assert len(coeffs) == a + 1 and coeffs[-1] != 0
    for n in N_RANGE:
        assert power_sum_at(a, rho, n) == direct_sum(a, rho, n)


def test_sum_geo_poly_base_two():
    # sum of 2^k below n is 2^n - 1
    assert power_sum(0, Fraction(2)) == ([1], -1)


def test_sum_geo_poly_linear_base_two():
    # sum k 2^k below n is (n-2) 2^n + 2
    assert power_sum(1, Fraction(2)) == ([-2, 1], 2)


@given(st.integers(0, 2**32), st.integers(0, 12))
def test_pe_eval_matches_fraction_powers(seed, n):
    rng = random.Random(seed)
    pe = PE_ZERO
    for _ in range(rng.randint(0, 4)):
        q = random_polynomial(rng, ("x1", "x2")).scale(Fraction(1, rng.randint(1, 4)))
        pe = pe_add(pe, PolyExp(((q, rng.randint(0, 3), rng.randint(1, 5)),)))
    state = {"x1": rng.randint(-9, 9), "x2": rng.randint(-9, 9)}
    expected = Fraction(0)
    for q, a, b in pe.addends:
        expected += q.evaluate(state) * Fraction(n) ** a * Fraction(b) ** n
    value = pe_eval(pe, state, n)
    assert isinstance(value, Fraction) and value == expected


def test_pe_add_cancellation():
    a = PolyExp(((x, 0, 4),))
    assert pe_add(a, PolyExp(((-x, 0, 4),))) == PE_ZERO


def test_pe_mul_merges_bases_and_exponents():
    a = PolyExp(((x1, 0, 4),))
    assert pe_mul(a, a) == PolyExp(((x1**2, 0, 16),))
    n2 = PolyExp(((Polynomial.one(), 1, 2),))
    n3 = PolyExp(((Polynomial.one(), 1, 3),))
    assert pe_mul(n2, n3) == PolyExp(((Polynomial.one(), 2, 6),))


def test_pe_of_constant():
    assert pe_of_poly(Polynomial.const(7)) == PolyExp(((Polynomial.const(7), 0, 1),))


def example_closed_forms() -> dict[str, PolyExp]:
    return {
        "x1": PolyExp(((x1, 0, 4),)),
        "x2": PolyExp(((x3**3, 0, 1), (x2 - x3**3, 0, 9))),
        "x3": PolyExp(((x3, 0, 1),)),
    }


def test_substitute_guard_polynomial():
    # expected expansion derived by hand, then checked numerically below
    cf = example_closed_forms()
    result = pe_substitute(x2 - x1**2 - x3**5, cf)
    expected = PolyExp(
        (
            (x3**3 - x3**5, 0, 1),
            (x2 - x3**3, 0, 9),
            (-(x1**2), 0, 16),
        )
    )
    assert result == expected
    rng = random.Random(3)
    for _ in range(25):
        state = {v: rng.randint(-5, 5) for v in ("x1", "x2", "x3")}
        for n in range(0, 11):
            direct = (
                state["x2"] * Fraction(9) ** n
                - state["x3"] ** 3 * (Fraction(9) ** n - 1)
                - (state["x1"] * Fraction(4) ** n) ** 2
                - state["x3"] ** 5
            )
            assert pe_eval(result, state, n) == direct


def test_substitute_identity_variable():
    cf = example_closed_forms()
    assert pe_substitute(x3, cf) == cf["x3"]


def test_pe_eval_matches_reference_value():
    cf = example_closed_forms()
    state = {"x1": 1, "x2": 3, "x3": 1}
    assert pe_eval(cf["x2"], state, 2) == 163
    assert pe_eval(cf["x1"], state, 2) == 16
    assert pe_eval(PE_ZERO, state, 5) == 0


def test_canonical_ordering_invariant():
    pe = pe_add(
        PolyExp(((x1, 0, 16),)),
        pe_add(PolyExp(((x2, 3, 2),)), PolyExp(((x3, 1, 2),))),
    )
    keys = [(b, a) for _, a, b in pe.addends]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_pe_normalize_integer():
    half = PolyExp(((x.scale(Fraction(1, 2)), 0, 1),))
    lam, out = pe_normalize_integer(half)
    assert lam == 2 and out == PolyExp(((x, 0, 1),))

    intact = PolyExp(((x, 0, 2),))
    assert pe_normalize_integer(intact) == (1, intact)

    mixed = pe_add(
        PolyExp(((x.scale(Fraction(1, 2)), 0, 2),)),
        PolyExp(((Polynomial.var("y").scale(Fraction(1, 3)), 0, 1),)),
    )
    lam, out = pe_normalize_integer(mixed)
    assert lam == 6
    assert out == pe_add(
        PolyExp(((x * 3, 0, 2),)), PolyExp(((Polynomial.var("y") * 2, 0, 1),))
    )


def test_pe_shift():
    rng = random.Random(5)
    pe = PolyExp(((x, 2, 3), (Polynomial.one(), 1, 1)))
    shifted = pe_shift(pe, 1)
    for _ in range(20):
        state = {"x": rng.randint(-4, 4)}
        for n in range(1, 12):
            assert pe_eval(shifted, state, n) == pe_eval(pe, state, n - 1)


def test_ring_laws_on_random_samples():
    rng = random.Random(9)

    def random_pe():
        addends = []
        for _ in range(rng.randint(0, 3)):
            q = Polynomial.var(rng.choice(("x1", "x2"))).scale(rng.randint(-3, 3))
            addends.append((q + rng.randint(-2, 2), rng.randint(0, 2), rng.randint(1, 3)))
        out = PE_ZERO
        for q, a, b in addends:
            out = pe_add(out, PolyExp(((q, a, b),)) if not q.is_zero else PE_ZERO)
        return out

    for _ in range(60):
        a, b, c = random_pe(), random_pe(), random_pe()
        state = {"x1": rng.randint(-4, 4), "x2": rng.randint(-4, 4)}
        n = rng.randint(0, 6)

        def val(pe):
            return pe_eval(pe, state, n)

        assert val(pe_add(a, b)) == val(a) + val(b)
        assert val(pe_mul(a, b)) == val(a) * val(b)
        assert pe_add(a, b) == pe_add(b, a)
        assert pe_mul(a, b) == pe_mul(b, a)
        assert pe_mul(a, pe_add(b, c)) == pe_add(pe_mul(a, b), pe_mul(a, c))
        # same function built along different routes is structurally equal
        assert pe_add(pe_add(a, b), c) == pe_add(a, pe_add(b, c))


def _pe_degree(pe: PolyExp) -> int:
    return max(q.degree() for q, _, _ in pe.addends)


@pytest.mark.parametrize(
    "owner, name, degree, power, wrap",
    [
        (Polynomial, "__mul__", Polynomial.degree, lambda p, e: p**e, lambda p: p),
        (polyexp, "pe_mul", _pe_degree, pe_pow, pe_of_poly),
    ],
    ids=["Polynomial.__pow__", "pe_pow"],
)
def test_power_squares_only_while_exponent_bits_remain(
    monkeypatch, owner, name, degree, power, wrap
):
    original = getattr(owner, name)
    degrees: list[int] = []

    def counting(a, b):
        product = original(a, b)
        degrees.append(degree(product))
        return product

    monkeypatch.setattr(owner, name, counting)
    power(wrap(x1 + x2), 1)
    assert len(degrees) == 1
    degrees.clear()
    power(wrap(x1 + x2 + x3), 40)
    assert max(degrees) == 40


def test_product_past_the_cap_raises(monkeypatch):
    monkeypatch.setattr(polyexp, "MAX_PRODUCT_TERMS", 4)
    x, y = Polynomial.var("x"), Polynomial.var("y")
    two = pe_of_poly(x + 1)
    assert pe_mul(two, two) == pe_of_poly((x + 1) * (x + 1))
    with pytest.raises(polyexp.ClosedFormTooLarge, match="up to 6 terms, above the cap of 4"):
        pe_mul(two, pe_of_poly(x + y + 1))
