"""Twn loops: paths of transitions composed into one step, and closed forms.

A path's guard and update (``compose``) are those of running its transitions
in order.  A self-loop qualifies when its variables can be ordered so that
each update is ``c_i * x_i + p_i`` with a constant self-coefficient ``c_i``
and ``p_i`` mentioning only strictly later variables: the dependency graph is
acyclic and no variable occurs non-linearly in its own update.  Its path is
the loop itself, or the loop twice when a self-coefficient is negative, which
squares the coefficients.  A bound B on the runs of a path of k transitions
gives k*B + k - 1 steps of them (2*B + 1 at k = 2).

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
from typing import Iterator

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
        super().__init__("cyclic variable dependencies: " + " -> ".join(cycle))


class NonLinearSelfOccurrence(TwnRejection):
    def __init__(self, var: str):
        super().__init__(f"{var} occurs non-linearly in its own update")


@dataclass(frozen=True)
class TwnLoop:
    guard: Formula
    update: dict[str, Polynomial]
    order: tuple[str, ...]  # update of order[i] mentions only later entries
    coeffs: dict[str, int]  # self-coefficients, all >= 0
    path: tuple[Transition, ...]  # guard and update are its composition


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

    # integral: programs validate their updates so, and composition keeps it
    coeffs = {v: splits[v][0].numerator for v in variables}
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


def compose(path: tuple[Transition, ...]) -> tuple[Formula, dict[str, Polynomial]]:
    """Guard and update of running ``path``'s transitions in order: each
    step's guard is taken in the state the steps before it reach."""
    guards = [path[0].guard]
    update = dict(path[0].update)
    for t in path[1:]:
        guards.append(substitute(t.guard, update))
        update = compose_updates(update, t.update)
    return mk_and(guards), update


def iterates(update: dict[str, Polynomial], count: int) -> Iterator[dict[str, Polynomial]]:
    """``update`` applied 0, 1, ..., count - 1 times, as polynomials in the
    start state."""
    current = {v: Polynomial.var(v) for v in update}
    for _ in range(count):
        yield current
        current = compose_updates(current, update)


def twn_check(t: Transition) -> TwnLoop:
    """Validate a self-loop as twn, composing it with itself when a
    self-coefficient is negative."""
    if not t.is_self_loop:
        raise NotSelfLoop(t)
    variables = tuple(t.update.keys())
    _, coeffs = _check_structure(variables, t.update)
    path = (t,) if all(c >= 0 for c in coeffs.values()) else (t, t)
    guard, update = compose(path)
    order, coeffs = _check_structure(variables, update)
    assert all(c >= 0 for c in coeffs.values()), "doubled self-coefficients are squares"
    return TwnLoop(guard, update, order, coeffs, path)


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
            for k, state_k in enumerate(iterates(loop.update, inner_start)):
                true_value = p.substitute(state_k)
                correction = (true_value - _addends_at(g, k)).scale(Fraction(1, c ** (k + 1)))
                if not correction.is_zero:
                    total = pe_add(total, PolyExp(((correction, 0, c),)))
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

