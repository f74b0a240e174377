"""Triangular weakly non-linear self-loops: detection, chaining, closed forms.

A self-loop qualifies when its variables can be ordered so that each update
is ``c_i * x_i + p_i`` with a constant self-coefficient ``c_i`` and ``p_i``
mentioning only strictly later variables: the dependency graph is acyclic and
no variable occurs non-linearly in its own update.  Negative self-coefficients
are removed by chaining (self-composition): one iteration of the chained loop
equals two of the original, the squared coefficients are nonnegative, and a
runtime bound B for the chained loop gives 2*B + 1 for the original.

Closed forms are computed variable by variable in reverse dependency order.
With cl(later) already known, the recurrence ``x^(k+1) = c*x^(k) + p(...)``
unrolls to ``c^n * x + sum_{k<n} c^(n-1-k) * g(k)`` where ``g`` is ``p``
composed with the later closed forms.  Each addend ``q * n^a * b^n`` of
``g`` is summed by one exact kernel, ``polyexp.power_sum`` at ratio ``b/c``;
``c = 0`` degenerates to a single shifted evaluation and bumps the validity
start.  When an inner closed form is only valid from some ``m > 0`` on, the
first ``m`` summands are replaced by explicitly iterated update polynomials
so the result is exact for every ``n >= `` its own start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ir import (
    Formula,
    Polynomial,
    Transition,
    compose_updates,
    mk_and,
    substitute,
)
from .polyexp import (
    PE_ZERO,
    PolyExp,
    pe_add,
    pe_shift,
    pe_substitute,
    power_sum,
)


class TwnRejection(Exception):
    """The transition is not analyzable as a twn self-loop."""


class NotSelfLoop(TwnRejection):
    def __init__(self, t: Transition):
        super().__init__(f"{t.tid} is not a self-loop ({t.src} -> {t.tgt})")


class CyclicDependency(TwnRejection):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("cyclic variable dependencies: " + " -> ".join(cycle))


class NonLinearSelfOccurrence(TwnRejection):
    def __init__(self, var: str):
        self.var = var
        super().__init__(f"{var} occurs non-linearly in its own update")


@dataclass(frozen=True)
class TwnLoop:
    guard: Formula
    update: dict[str, Polynomial]
    order: tuple[str, ...]  # update of order[i] mentions only later entries
    coeffs: dict[str, int]  # self-coefficients, all >= 0
    chained: bool
    original_update: dict[str, Polynomial] | None = None  # set when chained


@dataclass(frozen=True)
class ClosedForm:
    values: dict[str, PolyExp]
    start: int  # exact from this iteration count on

    def __getitem__(self, var: str) -> PolyExp:
        return self.values[var]


def _split_update(var: str, rhs: Polynomial) -> tuple[Fraction, Polynomial]:
    """Split ``rhs`` as ``c * var + rest``; rejects non-linear self-occurrence."""
    c = Fraction(0)
    rest: dict = {}
    for mono, coeff in rhs.items():
        occurs = any(v == var for v, _ in mono)
        if not occurs:
            rest[mono] = coeff
            continue
        if mono == ((var, 1),):
            c = coeff
        else:
            raise NonLinearSelfOccurrence(var)
    return c, Polynomial(rest)


def _check_structure(
    variables: tuple[str, ...], update: dict[str, Polynomial]
) -> tuple[tuple[str, ...], dict[str, int]]:
    """Topological order and self-coefficients; raises on cycles."""
    splits = {v: _split_update(v, update[v]) for v in variables}
    deps = {v: splits[v][1].variables() - {v} for v in variables}

    index = {v: i for i, v in enumerate(variables)}
    order: list[str] = []
    remaining = set(variables)
    # Kahn's algorithm on the dependency graph.  Variables whose updates read
    # nothing still pending are placed first and the list is reversed, so the
    # final order puts every variable before its dependencies; ties break on
    # declaration index for deterministic output.
    while remaining:
        ready = sorted(
            (v for v in remaining if not (deps[v] & remaining)),
            key=lambda v: -index[v],
        )
        if not ready:
            cycle = _find_cycle(deps, remaining)
            raise CyclicDependency(cycle)
        v = ready[0]
        remaining.discard(v)
        order.append(v)
    order.reverse()  # dependencies of earlier entries come later

    coeffs: dict[str, int] = {}
    for v in variables:
        c = splits[v][0]
        if c.denominator != 1:
            raise NonLinearSelfOccurrence(v)  # unreachable for integral updates
        coeffs[v] = c.numerator
    return tuple(order), coeffs


def _find_cycle(deps: dict[str, frozenset], remaining: set[str]) -> list[str]:
    node = min(remaining)
    seen: list[str] = []
    while node not in seen:
        seen.append(node)
        nxt = sorted(d for d in deps[node] if d in remaining)
        node = nxt[0]
    start = seen.index(node)
    return seen[start:] + [node]


def chain(guard: Formula, update: dict[str, Polynomial]) -> tuple[Formula, dict[str, Polynomial]]:
    """Self-composition: guard ``tau && tau[x/eta(x)]``, update ``eta . eta``.

    One step of the result equals two steps of the input, so a runtime bound
    B for the result yields 2*B + 1 for the input.
    """
    stepped_guard = substitute(guard, update)
    return mk_and([guard, stepped_guard]), compose_updates(update, update)


def twn_check(t: Transition) -> TwnLoop:
    """Validate a self-loop as twn, chaining away negative self-coefficients."""
    if not t.is_self_loop:
        raise NotSelfLoop(t)
    variables = tuple(t.update.keys())
    order, coeffs = _check_structure(variables, t.update)
    if all(c >= 0 for c in coeffs.values()):
        return TwnLoop(t.guard, dict(t.update), order, coeffs, chained=False)
    guard2, update2 = chain(t.guard, t.update)
    order2, coeffs2 = _check_structure(variables, update2)
    assert all(c >= 0 for c in coeffs2.values()), "chained self-coefficients are squares"
    return TwnLoop(
        guard2, update2, order2, coeffs2, chained=True, original_update=dict(t.update)
    )


def closed_form(loop: TwnLoop) -> ClosedForm:
    """Per-variable poly-exponential closed forms, exact for n >= start."""
    values: dict[str, PolyExp] = {}
    var_start: dict[str, int] = {}
    for var in reversed(loop.order):
        c = loop.coeffs[var]
        _, p = _split_update(var, loop.update[var])
        inner_start = max(
            (var_start[w] for w in p.variables() if w != var), default=0
        )
        g = pe_substitute(p, values) if not p.is_zero else PE_ZERO
        if c == 0:
            # x^(n) = p(later at n-1); exact once the inner forms are.
            values[var] = pe_shift(g, 1)
            var_start[var] = inner_start + 1
            continue
        total = PolyExp(((Polynomial.var(var), 0, c),))  # c^n * x
        total = pe_add(total, _sum_weighted(g, c))
        if inner_start > 0:
            # Replace the first inner_start summands: subtract the symbolic
            # values of g at k < inner_start, add the true iterated values.
            subst_k = {v: Polynomial.var(v) for v in loop.update}
            for k in range(inner_start):
                symbolic = _addends_at(g, k)
                true_value = p.substitute(subst_k)
                correction = (true_value - symbolic).scale(Fraction(1, c ** (k + 1)))
                if not correction.is_zero:
                    total = pe_add(total, PolyExp(((correction, 0, c),)))
                subst_k = compose_updates(subst_k, dict(loop.update))
        values[var] = total
        var_start[var] = inner_start
    start = max(var_start.values(), default=0)
    return ClosedForm(values, start)


def _sum_weighted(g: PolyExp, c: int) -> PolyExp:
    """Exact ``sum_{k=0}^{n-1} c^(n-1-k) * g(k)`` for c >= 1, as a function
    of n (an identity of the symbolic expression, valid for all n >= 0)."""
    result = PE_ZERO
    for q, a, b in g.addends:
        # c^(n-1) * q * (P(n) (b/c)^n + K)  =  q/c * (P(n) b^n + K c^n)
        coeffs, k_const = power_sum(a, Fraction(b, c))
        terms = [(x, d, b) for d, x in enumerate(coeffs)] + [(k_const, 0, c)]
        for coeff, power, base in terms:
            result = pe_add(result, PolyExp(((q.scale(coeff / c), power, base),)))
    return result


def _addends_at(g: PolyExp, k: int) -> Polynomial:
    """Evaluate the n-dependence of ``g`` at the concrete point n = k."""
    total = Polynomial.zero()
    for q, a, b in g.addends:
        total = total + q.scale(k**a * b**k)
    return total

