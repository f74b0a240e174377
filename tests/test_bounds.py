import random
from fractions import Fraction

from polybound.bounds import (
    AsymptoticClass,
    Const,
    Exp,
    OMEGA,
    Prod,
    Sum,
    Var,
    ZERO,
    asymptotic_class,
    bound_eval,
    bound_of_poly,
    bound_str,
    bound_subst,
    bprod,
    bsum,
    simplify,
)
from polybound.ir import Polynomial

x2, x3, x4, x5 = (Polynomial.var(v) for v in ("x2", "x3", "x4", "x5"))


def test_bound_of_poly_examples():
    b = bound_of_poly(x2 - x3**3)
    assert bound_eval(b, {"x2": 2, "x3": 3}) == 2 + 27

    b = bound_of_poly(9 * x2 - 8 * x3**3)
    assert bound_eval(b, {"x2": 1, "x3": 2}) == 9 + 64

    # fractional magnitudes round up
    b = bound_of_poly(Polynomial.var("x").scale(Fraction(-1, 2)))
    assert bound_eval(b, {"x": 7}) == 7


def test_bound_of_poly_soundness_random():
    rng = random.Random(2)
    names = ("x", "y")
    for _ in range(200):
        p = Polynomial.const(rng.randint(-9, 9))
        for _ in range(rng.randint(0, 3)):
            mono = Polynomial.one()
            for _ in range(rng.randint(1, 3)):
                mono = mono * Polynomial.var(rng.choice(names))
            p = p + mono.scale(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        state = {v: rng.randint(-12, 12) for v in names}
        abs_state = {v: abs(s) for v, s in state.items()}
        assert abs(p.evaluate(state)) <= bound_eval(bound_of_poly(p), abs_state)


def test_eval_examples():
    b = Prod((Var("x4"), Sum((Prod((Const(2), Var("x5"))), Const(1)))))
    assert bound_eval(b, {"x4": 1, "x5": 3}) == 7
    assert bound_eval(Sum((Const(OMEGA), Const(5))), {}) == OMEGA
    assert bound_eval(Exp(2, Var("x")), {"x": 10}) == 1024


def test_zero_times_omega_is_zero():
    assert bound_eval(Prod((Const(0), Const(OMEGA))), {}) == 0
    assert simplify(Prod((Const(0), Const(OMEGA)))) == ZERO


def test_subst_examples():
    b = Sum((Prod((Const(2), Var("x2"))), Const(1)))
    assert bound_subst(b, {"x2": Var("x5")}) == Sum(
        (Prod((Const(2), Var("x5"))), Const(1))
    )
    assert bound_subst(b, {"x2": Var("x2")}) == b
    assert bound_eval(bound_subst(Var("x"), {"x": Const(OMEGA)}), {}) == OMEGA


def test_simplify_examples():
    assert simplify(Sum((Prod((Const(1), Var("x"))), Const(0)))) == Var("x")
    assert simplify(Sum((Const(2), Const(3)))) == Const(5)
    assert simplify(Exp(2, Const(3))) == Const(8)
    assert simplify(Exp(1, Var("x"))) == Const(1)


def _random_bound(rng, depth=0, allow_exp=True):
    # exponentials never nest, keeping evaluated magnitudes testable
    roll = rng.random()
    if depth > 2 or roll < 0.3:
        return Const(rng.randint(0, 5)) if rng.random() < 0.5 else Var(
            rng.choice(("x", "y"))
        )
    if roll < 0.55:
        return bsum(_random_bound(rng, depth + 1, allow_exp) for _ in range(2))
    if roll < 0.8 or not allow_exp:
        return bprod(_random_bound(rng, depth + 1, allow_exp) for _ in range(2))
    return Exp(rng.randint(1, 3), _random_bound(rng, depth + 1, allow_exp=False))


def test_monotonicity_random():
    rng = random.Random(4)
    for _ in range(150):
        b = _random_bound(rng)
        lo = {"x": rng.randint(0, 8), "y": rng.randint(0, 8)}
        hi = {v: s + rng.randint(0, 4) for v, s in lo.items()}
        assert bound_eval(b, lo) <= bound_eval(b, hi)


def test_simplify_preserves_eval_random():
    rng = random.Random(5)
    for _ in range(150):
        b = _random_bound(rng)
        state = {"x": rng.randint(0, 6), "y": rng.randint(0, 6)}
        assert bound_eval(simplify(b), state) == bound_eval(b, state)


def test_subst_composes_with_eval():
    rng = random.Random(6)
    for _ in range(100):
        b = _random_bound(rng)
        mapping = {
            "x": _random_bound(rng, allow_exp=False),
            "y": _random_bound(rng, allow_exp=False),
        }
        state = {"x": rng.randint(0, 5), "y": rng.randint(0, 5)}
        inner = {v: bound_eval(m, state) for v, m in mapping.items()}
        assert bound_eval(bound_subst(b, mapping), state) == bound_eval(b, inner)


def test_asymptotic_classes():
    quadratic = Prod((Var("x4"), Sum((Prod((Const(2), Var("x5"))), Const(1)))))
    assert asymptotic_class(quadratic) == AsymptoticClass("poly", 2)
    assert asymptotic_class(Const(5)) == AsymptoticClass("const")
    assert asymptotic_class(Exp(2, Var("x"))) == AsymptoticClass("exp")
    assert asymptotic_class(Const(OMEGA)) == AsymptoticClass("inf")
    assert asymptotic_class(Exp(2, Const(7))) == AsymptoticClass("const")
    assert asymptotic_class(Exp(1, Var("x"))) == AsymptoticClass("const")
    assert asymptotic_class(Exp(2, Const(3))) == AsymptoticClass("const")
    assert asymptotic_class(Prod((Const(0), Exp(2, Var("x"))))) == AsymptoticClass("const")
    cubic = Prod((Var("x"), Var("x"), Var("x")))
    assert asymptotic_class(Sum((Exp(2, Var("x")), cubic))) == AsymptoticClass("exp")
    assert str(AsymptoticClass("poly", 1)) == "O(n)"
    assert str(AsymptoticClass("poly", 6)) == "O(n^6)"


def test_bound_grammar_printing():
    b = Prod((Var("x4"), Sum((Prod((Const(2), Var("x5"))), Const(1)))))
    assert bound_str(b) == "x4*(2*x5+1)"
    assert bound_str(Const(OMEGA)) == "ω"
    assert bound_str(Exp(2, Sum((Var("x"), Const(1))))) == "2^(x+1)"
