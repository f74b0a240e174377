import time

import pytest

from polybound.ir import (
    And,
    Atom,
    Or,
    ParseError,
    Polynomial,
    TRUE,
    parse_program,
)


def test_nested_structure(nested):
    assert nested.vars == ("x1", "x2", "x3", "x4", "x5")
    assert nested.locs == frozenset({"l0", "l1", "l2"})
    assert nested.init == "l0"
    assert [t.tid for t in nested.transitions] == ["t0", "t1", "t2", "t3"]


def test_nested_guard_normalization(nested):
    t3 = nested.transition("t3")
    x1 = Polynomial.var("x1")
    x2 = Polynomial.var("x2")
    x3 = Polynomial.var("x3")
    expected = And((Atom(x2 - x1**2 - x3**5), Or((Atom(x1), Atom(-x1)))))
    assert t3.guard == expected


def test_nested_updates(nested):
    t3 = nested.transition("t3")
    assert t3.update["x2"] == Polynomial.var("x2") * 9 - Polynomial.var("x3") ** 3 * 8
    t2 = nested.transition("t2")
    assert t2.update["x4"] == Polynomial.var("x4") - 1
    assert t2.update["x1"] == Polynomial.var("x1")  # identity fill


def test_guardless_rule_gets_true_guard():
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(x))"
    )
    assert p.transition("t0").guard == TRUE


def test_non_integer_update_rejected():
    with pytest.raises(ParseError, match="non-integer coefficient"):
        parse_program(
            "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
            "(RULES l0(x) -> l1(x/2))"
        )


def test_rule_targeting_start_symbol_rejected():
    with pytest.raises(ParseError, match="start symbol"):
        parse_program(
            "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
            "(RULES l0(x) -> l0(x))"
        )


def test_unknown_variable_rejected():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_program(
            "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
            "(RULES l0(x) -> l1(q))"
        )


def test_syntax_error_carries_position():
    try:
        parse_program("(GOAL COMPLEXITY)\n(STARTTERM (FUNCTIONSYMBOLS l0))\n(VAR x)\n(RULES l0(x -> l1(x))")
    except ParseError as exc:
        assert exc.line == 4
    else:
        pytest.fail("expected a parse error")


def test_negation_elimination():
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x y)"
        "(RULES l0(x,y) -> l1(x,y) :|: !(x < 1 || y = 2))"
    )
    guard = p.transition("t0").guard
    from polybound.ir import eval_formula

    for xv in range(-3, 4):
        for yv in range(-3, 4):
            expected = not (xv < 1 or yv == 2)
            assert eval_formula(guard, {"x": xv, "y": yv}) == expected


def test_division_by_constant_allowed_when_integral():
    p = parse_program(
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x)"
        "(RULES l0(x) -> l1(4*x/2))"
    )
    assert p.transition("t0").update["x"] == Polynomial.var("x") * 2


def test_long_guard_of_parenthesized_atoms_parses_in_linear_time():
    guard = " && ".join(["(x > 0)"] * 16000)
    text = (
        "(GOAL COMPLEXITY)\n(STARTTERM (FUNCTIONSYMBOLS l0))\n(VAR x)\n"
        f"(RULES\n  l0(x) -> l1(x) :|: {guard}\n)\n"
    )
    started = time.perf_counter()
    program = parse_program(text)
    assert time.perf_counter() - started < 3.0
    assert program.transitions[0].guard == And((Atom(Polynomial.var("x")),) * 16000)


def four_variable_rule(guard: str = "x > 0", update: str = "x-1") -> str:
    return (
        "(GOAL COMPLEXITY)(STARTTERM (FUNCTIONSYMBOLS l0))(VAR x y z w)"
        f"(RULES l0(x,y,z,w) -> l1(x,y,z,w)  l1(x,y,z,w) -> l1({update},y,z,w) :|: {guard})"
    )


@pytest.mark.parametrize("text, message", [
    (four_variable_rule("(x+y+z+w)^40 > 0"), "up to 12341 monomials"),
    (four_variable_rule(update="(x+y+z+w)^20"), "up to 1771 monomials"),
    (four_variable_rule("(x+y+z+w)^7*(x+y+z+w)^7 > 0"), "up to 14400 monomials"),
    (four_variable_rule("x^65 > 0"), "exponent 65 above the cap of 64"),
])
def test_oversized_expansions_are_rejected_before_expanding(text, message):
    started = time.perf_counter()
    with pytest.raises(ParseError, match=message):
        parse_program(text)
    assert time.perf_counter() - started < 1.0


def test_expansions_within_the_caps_parse():
    # (0)^0: a base without monomials
    p = parse_program(four_variable_rule("(x+y+z+w)^11 > 0 && x^64 > 0 && (0)^0 > 0"))
    power = p.transition("t1").guard.children[0]
    assert power.poly.term_count() == 364  # binomial(11 + 3, 3)


HEADER = "(GOAL COMPLEXITY)\n(STARTTERM (FUNCTIONSYMBOLS l0))\n(VAR x)\n(RULES\n"


@pytest.mark.parametrize("rules, message, line, col", [
    ("  l0(1) -> l1(x))", "expected variable, found '1'", 5, 6),  # numeral
    ("  l0(x) -> l1(y))", "unknown variable y", 5, 15),  # identifier
    ("  l0(x) -> l1(x,))", "expected ), found ','", 5, 16),  # symbol
    ("\tl0(x) -> l1(x) :|: x > ²)", "unexpected character '²'", 5, 25),  # other
    ("  l0(x) ->\n  l1(x)", "expected ), found ''", 6, 8),  # end of input
])
def test_parse_error_positions_per_token_class(rules, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_program(HEADER + rules)
    assert (str(info.value), info.value.line, info.value.col) == (
        f"{line}:{col}: {message}", line, col)

