"""Twn loops: paths of transitions composed into one step, and closed forms.

A path's guard and update (``compose``) are those of running its transitions
in order.  A self-loop qualifies when its variables can be ordered so that
each update is ``c_i * x_i + p_i`` with a constant self-coefficient ``c_i``
and ``p_i`` mentioning only strictly earlier variables: the dependency graph
is acyclic and no variable occurs non-linearly in its own update.
``TwnLoop.order`` is such an order, dependencies first.  Its path is
the loop itself, or the loop twice when a self-coefficient is negative, which
squares the coefficients.  A bound B on the runs of a path of k transitions
gives k*B + k - 1 steps of them (2*B + 1 at k = 2).

Closed forms are computed variable by variable along ``order``.
With cl(earlier) already known, the recurrence ``x^(k+1) = c*x^(k) + p(...)``
unrolls to ``c^n * x + sum_{k<n} c^(n-1-k) * g(k)`` where ``g`` is ``p``
composed with the earlier closed forms.  Each addend ``q * n^a * b^n`` of
``g`` is summed by one exact kernel, ``polyexp.power_sum`` at ratio ``b/c``;
``c = 0`` degenerates to a single shifted evaluation and bumps the validity
start.  When an inner closed form is only valid from some ``m > 0`` on, the
first ``m`` summands are replaced by explicitly iterated update polynomials
so the result is exact for every ``n >= `` its own start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
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


@dataclass(frozen=True)
class TwnLoop:
    guard: Formula
    update: dict[str, Polynomial]
    order: tuple[str, ...]  # each rest reads only earlier entries
    steps: dict[str, tuple[int, Polynomial]]  # update[v] = c * v + rest, c >= 0
    path: tuple[Transition, ...]  # guard and update are its composition


@dataclass(frozen=True)
class ClosedForm:
    values: dict[str, PolyExp]
    start: int  # exact from this iteration count on

    def __getitem__(self, var: str) -> PolyExp:
        return self.values[var]


def _triangular(
    update: dict[str, Polynomial]
) -> tuple[tuple[str, ...], dict[str, tuple[int, Polynomial]]]:
    """Split each update once as ``c * var + rest`` and order the variables,
    dependencies first; rejects non-linear self-occurrence and cycles."""
    steps = {}
    for var, rhs in update.items():
        c, rest = 0, {}
        for mono, coeff in rhs.items():
            if mono == ((var, 1),):
                # integral: programs validate their updates so, and
                # composition keeps it
                c = coeff.numerator
            elif any(v == var for v, _ in mono):
                raise TwnRejection(f"{var} occurs non-linearly in its own update")
            else:
                rest[mono] = coeff
        steps[var] = (c, Polynomial(rest))
    # sorted, so that the order does not depend on string hashing
    graph = {var: sorted(rest.variables()) for var, (_, rest) in steps.items()}
    try:
        order = tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        # listed from each dependency to its reader: reverse to read along
        # the updates
        cycle = " -> ".join(reversed(exc.args[1]))
        raise TwnRejection(f"cyclic variable dependencies: {cycle}") from None
    return order, steps


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
        raise TwnRejection(f"{t.tid} is not a self-loop ({t.src} -> {t.tgt})")
    _, steps = _triangular(t.update)
    path = (t,) if all(c >= 0 for c, _ in steps.values()) else (t, t)
    guard, update = compose(path)
    order, steps = _triangular(update)
    assert all(c >= 0 for c, _ in steps.values()), "doubled self-coefficients are squares"
    return TwnLoop(guard, update, order, steps, path)


def closed_form(loop: TwnLoop) -> ClosedForm:
    """Per-variable poly-exponential closed forms, exact for n >= start."""
    values: dict[str, PolyExp] = {}
    var_start: dict[str, int] = {}
    for var in loop.order:
        c, p = loop.steps[var]
        inner_start = max((var_start[w] for w in p.variables()), default=0)
        g = pe_substitute(p, values) if not p.is_zero else PE_ZERO
        if c == 0:
            # x^(n) = p(earlier at n-1); exact once the inner forms are.
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

