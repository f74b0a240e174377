"""Parser for the rule-based input format.

Accepted shape (whitespace insensitive, UTF-8)::

    (GOAL COMPLEXITY)
    (STARTTERM (FUNCTIONSYMBOLS l0))
    (VAR x1 x2)
    (RULES
      l0(x1,x2) -> l1(x1,x2)
      l1(x1,x2) -> l1(x1-1,x2) :|: x1 > 0 && !(x2 < 0)
    )

The i-th right-hand side expression updates the i-th declared variable.
Guards support ``&&``, ``||``, ``!`` and the relations < > <= >= = !=;
negation is eliminated and every relation is normalized to atoms ``p > 0``
with integer coefficients.  Transitions are named t0, t1, ... in order of
appearance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .formula import (
    NEGATED_REL,
    Formula,
    TRUE,
    mk_and,
    mk_or,
    normalize_atom,
)
from .poly import Polynomial
from .program import Program, Transition

# Products and powers are checked before they are expanded: a one-line power
# of a sum could otherwise stall the analysis before any solver timeout.
MAX_EXPONENT = 64
MAX_MONOMIALS = 512
# Constants are capped far below the 4,300 digits the interpreter converts
# between int and str, so that the sums of them that the ranking encoding
# prints into solver scripts still convert.  Checked on literals, on every
# power (nested powers would otherwise build ever larger constants) and on
# every finished update and side of a guard relation.
MAX_DIGITS = 1000
_CONSTANT_LIMIT = 10**MAX_DIGITS


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int


# Token kinds, tried in this order at each position; a symbol's kind is its
# text.  Numerals are decimal digits only, the digits ``int()`` converts.
# An identifier starts with a letter or ``_``; the pattern also admits a
# non-decimal digit such as ``²`` there, which ``tokenize`` rejects.
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("newline", r"\n"),
    ("space", r"[^\S\n]+"),
    ("int", r"\d+"),
    ("ident", r"[^\W\d][\w']*"),
    ("symbol", r"->|:\|:|&&|\|\||<=|>=|!=|[(),<>=!+\-*/^]"),
    ("other", r"."),
)))


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
            kind = "other"
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "other":
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
        elif kind != "space":
            tokens.append(Token(value if kind == "symbol" else kind, value, line, col))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind:
            want = what or kind
            raise ParseError(f"expected {want}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def expect_words(self, *words: str) -> None:
        for word in words:
            tok = self.next()
            if tok.value != word:
                raise ParseError(f"expected {word}, found {tok.value!r}", tok.line, tok.col)

    # -- top level -----------------------------------------------------

    def program(self) -> Program:
        self.expect_words("(", "GOAL", "COMPLEXITY", ")", "(", "STARTTERM", "(",
                          "FUNCTIONSYMBOLS")
        init = self.expect("ident").value
        self.expect_words(")", ")", "(", "VAR")
        variables: list[str] = []
        while self.peek().kind == "ident":
            tok = self.next()
            if tok.value in variables:
                raise ParseError(f"duplicate variable {tok.value}", tok.line, tok.col)
            variables.append(tok.value)
        if not variables:
            tok = self.peek()
            raise ParseError("empty variable declaration", tok.line, tok.col)
        self.expect_words(")", "(", "RULES")
        transitions: list[Transition] = []
        locs: set[str] = {init}
        while self.peek().kind == "ident":
            transitions.append(self.rule(f"t{len(transitions)}", tuple(variables), init))
            locs.add(transitions[-1].src)
            locs.add(transitions[-1].tgt)
        self.expect(")")
        self.expect("eof", "end of input")
        if not transitions:
            raise ParseError("no rules", 1, 1)
        return Program(tuple(variables), frozenset(locs), init, tuple(transitions))

    def rule(self, tid: str, variables: tuple[str, ...], init: str) -> Transition:
        src_tok = self.expect("ident", "location")
        self.expect("(")
        for i, v in enumerate(variables):
            tok = self.expect("ident", "variable")
            if tok.value != v:
                raise ParseError(
                    f"left-hand side must list the declared variables; "
                    f"expected {v}, found {tok.value}",
                    tok.line,
                    tok.col,
                )
            if i + 1 < len(variables):
                self.expect(",")
        self.expect(")")
        self.expect("->")
        tgt_tok = self.expect("ident", "location")
        if tgt_tok.value == init:
            raise ParseError("rule targets the start symbol", tgt_tok.line, tgt_tok.col)
        self.expect("(")
        update: dict[str, Polynomial] = {}
        for i, v in enumerate(variables):
            tok = self.peek()
            rhs = self.poly(variables)
            if not rhs.is_integral():
                raise ParseError(
                    f"non-integer coefficient in update of {v}", tok.line, tok.col
                )
            update[v] = _check_constants(rhs, tok)
            if i + 1 < len(variables):
                self.expect(",")
        self.expect(")")
        guard: Formula = TRUE
        if self.peek().kind == ":|:":
            self.next()
            guard = self.junction("||", variables, negated=False)
        return Transition(tid, src_tok.value, guard, update, tgt_tok.value)

    # -- guards ----------------------------------------------------------

    # Negation is pushed to the leaves while parsing: under an odd number of
    # enclosing ``!``, ``||`` and ``&&`` swap (De Morgan) and each relation
    # is replaced by its complement.

    def junction(self, op: str, variables, negated: bool) -> Formula:
        """Operands joined by ``op``: ``||`` joins ``&&``-junctions, ``&&``
        joins literals."""
        parts = []
        while True:
            parts.append(self.junction("&&", variables, negated) if op == "||"
                         else self.lit(variables, negated))
            if self.peek().kind != op:
                return (mk_and if (op == "&&") != negated else mk_or)(parts)
            self.next()

    def lit(self, variables, negated: bool) -> Formula:
        if self.peek().kind == "!":
            self.next()
            return self.lit(variables, not negated)
        if self.peek().kind == "(":
            # Either a parenthesized sub-formula or a parenthesized
            # polynomial; decide by scanning for a relation before the
            # matching close paren at depth 0.
            if self._paren_is_formula():
                self.next()
                sub = self.junction("||", variables, negated)
                self.expect(")")
                return sub
        tok = self.peek()
        lhs = self.poly(variables)
        rel_tok = self.next()
        if rel_tok.kind not in ("<", ">", "<=", ">=", "=", "!="):
            raise ParseError(
                f"expected relation, found {rel_tok.value!r}", rel_tok.line, rel_tok.col
            )
        rhs = self.poly(variables)
        for side, p in (("left", lhs), ("right", rhs)):
            if not p.is_integral():
                raise ParseError(
                    f"non-integer coefficient in guard ({side} side)",
                    tok.line,
                    tok.col,
                )
            _check_constants(p, tok)
        rel = NEGATED_REL[rel_tok.kind] if negated else rel_tok.kind
        return normalize_atom(lhs, rel, rhs)

    def _paren_is_formula(self) -> bool:
        depth = 0
        for i in range(self.pos, len(self.tokens)):
            tok = self.tokens[i]
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif depth >= 1 and tok.kind in ("<", ">", "<=", ">=", "=", "!=", "&&", "||"):
                return True
            elif tok.kind == "eof":
                break
        return False

    # -- polynomial expressions -------------------------------------------

    def poly(self, variables) -> Polynomial:
        result = self.term(variables)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term(variables)
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self, variables) -> Polynomial:
        result = self.factor(variables)
        while self.peek().kind in ("*", "/"):
            op_tok = self.next()
            rhs = self.factor(variables)
            if op_tok.kind == "*":
                _check_expansion(result.term_count() * rhs.term_count(), op_tok)
                result = result * rhs
            else:
                tok = self.peek()
                if not rhs.is_const or rhs.const_value() == 0:
                    raise ParseError(
                        "division only by nonzero integer constants", tok.line, tok.col
                    )
                result = result.scale(Fraction(1) / rhs.const_value())
        return result

    def factor(self, variables) -> Polynomial:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return -self.factor(variables)
        if tok.kind == "+":
            self.next()
            return self.factor(variables)
        base = self.atom_expr(variables)
        while self.peek().kind == "^":
            self.next()
            tok = self.expect("int", "integer exponent")
            exp, count = _int(tok), base.term_count()
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} above the cap of {MAX_EXPONENT}",
                                 tok.line, tok.col)
            # each monomial of the power is a product of exp of the base's
            _check_expansion(comb(count + exp - 1, exp) if count else 1, tok)
            base = _check_constants(base**exp, tok)
        return base

    def atom_expr(self, variables) -> Polynomial:
        tok = self.next()
        if tok.kind == "int":
            return Polynomial.const(_int(tok))
        if tok.kind == "ident":
            if tok.value not in variables:
                raise ParseError(f"unknown variable {tok.value}", tok.line, tok.col)
            return Polynomial.var(tok.value)
        if tok.kind == "(":
            inner = self.poly(variables)
            self.expect(")")
            return inner
        raise ParseError(f"expected expression, found {tok.value!r}", tok.line, tok.col)


def _int(tok: Token) -> int:
    if len(tok.value) > MAX_DIGITS:
        raise ParseError(f"integer literal of {len(tok.value)} digits is too long, "
                         f"above the cap of {MAX_DIGITS}", tok.line, tok.col)
    return int(tok.value)


def _check_constants(p: Polynomial, tok: Token) -> Polynomial:
    """Reject ``p`` if a coefficient has more than MAX_DIGITS digits."""
    for _, c in p.items():
        if max(abs(c.numerator), c.denominator) >= _CONSTANT_LIMIT:
            raise ParseError(f"constant of more than {MAX_DIGITS} digits",
                             tok.line, tok.col)
    return p


def _check_expansion(bound: int, tok: Token) -> None:
    """Reject a product that may expand to more than MAX_MONOMIALS monomials."""
    if bound > MAX_MONOMIALS:
        raise ParseError(f"expression expands to up to {bound} monomials, above the "
                         f"cap of {MAX_MONOMIALS}", tok.line, tok.col)


def parse_program(text: str) -> Program:
    parser = _Parser(tokenize(text))
    try:
        return parser.program()
    except RecursionError:  # the descent recurses once per nesting level
        tok = parser.peek()
        raise ParseError("nesting too deep", tok.line, tok.col) from None

