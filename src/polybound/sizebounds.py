"""Size bounds: how large can ``|v|`` be right after a transition fires.

Bounds are in terms of the initial absolute-value state.  The rules form a
small, auditable fragment, applied first-match per (transition, variable):

  R0  transitions out of the start location: coefficient bound of the update
      (the variables denote initial values).
  R1  transitions outside every cycle: update bound composed with the size
      bounds of the predecessors of the source location.
  R2  component-invariant variables (every transition in the component keeps
      them): the entry bounds pass through.
  R2b cyclic transitions whose update for ``v`` reads only component-invariant
      variables: as R1, with the predecessor bounds of those variables known
      via R2.
  R3  additive counters (every component transition keeps, shifts by a
      constant, or resets ``v``): entry bounds plus reset magnitudes plus
      increment magnitudes scaled by how often each incrementing transition
      can run.
  R4  single twn self-loops with a finite local bound: the closed-form size
      bound, composed with the entry bounds.
  R5  everything else is unbounded.

Maxima over incoming or entry transitions are over-approximated by sums,
which is sound because all bounds are nonnegative.
"""

from __future__ import annotations

from .bounds import (
    Bound,
    Const,
    INFINITE,
    bound_of_poly,
    bound_subst,
    bound_vars,
    bprod,
    bsum,
    simplify,
)
from .ir import Polynomial, Program, Transition, entry_transitions
from .twnbounds import TwnAnalysis, twn_size_bound

SizeBoundMap = dict[tuple[str, str], Bound]


def _sum_over(transitions, v: str, sb: SizeBoundMap) -> Bound:
    """The sum of SB(r, v) over ``transitions``, a bound on their maximum."""
    return simplify(bsum(sb[(r.tid, v)] for r in transitions))


def _composed_bound(p: Program, t: Transition, v: str, sb: SizeBoundMap) -> Bound:
    """The update bound for ``v`` at the incoming size bounds of ``t.src``."""
    mapping = {
        w: _sum_over(p.incoming(t.src), w, sb) for w in t.update[v].variables()
    }
    return simplify(bound_subst(bound_of_poly(t.update[v]), mapping))


def _acyclic_bound(p: Program, t: Transition, v: str, sb: SizeBoundMap) -> Bound:
    if t.src == p.init:
        return simplify(bound_of_poly(t.update[v]))
    return _composed_bound(p, t, v, sb)


def size_bounds_for_scc(
    p: Program,
    scc: list[Transition],
    rb: dict[str, Bound],
    sb: SizeBoundMap,
    twn_analyses: dict[str, TwnAnalysis] | None = None,
) -> SizeBoundMap:
    """Assign SB(t, v) for every transition of the unit; returns ``sb``.

    A single non-cyclic transition is handled as its own unit via R0/R1.
    Preconditions: size bounds of transitions topologically before the unit
    are present; runtime bounds may still be infinite (the affected entries
    simply stay infinite until recomputation).
    """
    twn_analyses = twn_analyses or {}
    if len(scc) == 1 and not scc[0].is_self_loop:
        t = scc[0]
        for v in p.vars:
            sb[(t.tid, v)] = _acyclic_bound(p, t, v, sb)
        return sb

    entries = entry_transitions(p, scc)
    invariant = {
        v
        for v in p.vars
        if all(t.update[v] == Polynomial.var(v) for t in scc)
    }

    def bound(t: Transition, v: str) -> Bound:
        # R2b: the update reads only component-invariant variables
        if t.update[v].variables() <= invariant:
            return _composed_bound(p, t, v, sb)

        # R3: additive counter across the whole component (every Program
        # checks that its updates are integral, so the constants are too)
        resets: list[Bound] = []
        increments: list[Bound] = []
        for t2 in scc:
            rhs = t2.update[v]
            if rhs == Polynomial.var(v):
                continue
            if rhs.is_const:
                resets.append(Const(abs(int(rhs.const_value()))))
            elif (diff := rhs - Polynomial.var(v)).is_const:
                increments.append(bprod([Const(abs(int(diff.const_value()))), rb[t2.tid]]))
            else:
                break
        else:
            return simplify(bsum([_sum_over(entries, v, sb), *resets, *increments]))

        # R4: a twn self-loop (past the branch above, a unit of one
        # transition is one) with a finite local bound
        analysis = twn_analyses.get(t.tid) if len(scc) == 1 else None
        if analysis is not None and analysis.iteration_bound is not None:
            raw = twn_size_bound(analysis, v)
            mapping = {w: _sum_over(entries, w, sb) for w in bound_vars(raw)}
            return simplify(bound_subst(raw, mapping))

        # R5
        return INFINITE

    # R2 first: these values feed R2b within the same pass.
    for v in invariant:
        value = _sum_over(entries, v, sb)
        for t in scc:
            sb[(t.tid, v)] = value

    for t in scc:
        for v in p.vars:
            if v not in invariant:
                sb[(t.tid, v)] = bound(t, v)
    return sb
