"""Termination and local runtime bounds for twn self-loops.

The pipeline per self-loop: detect (and compose its path), compute closed
forms, reduce non-termination to an existential integer formula, ask the
solver, and for terminating loops derive a symbolic bound on the iteration
count from a stabilization argument.

Every guard atom, with the closed forms substituted, becomes a
poly-exponential expression whose sign as a function of n is eventually
decided by its asymptotically largest addend with a nonzero coefficient.
"Eventually" is quantified by dominance thresholds: past them, each addend
exceeds its lower neighbour by a spare factor n, so the top nonzero addend
outweighs the magnitude sum of everything below it once n also exceeds that
coefficient sum.  The resulting per-atom bound is polynomial in the loop's
entry state, and their total bounds how long any guard atom can still flip,
hence how long a terminating loop can run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    Bound,
    Const,
    INFINITE,
    bound_of_poly,
    bound_subst,
    bprod,
    bsum,
    Exp,
    simplify,
)
from .ir import (
    Atom,
    FALSE,
    Formula,
    Polynomial,
    Transition,
    atoms as formula_atoms,
    eval_formula,
    map_atoms,
    mk_and,
    mk_or,
    normalize_atom,
)
from .polyexp import (
    ClosedFormTooLarge, PolyExp, pe_eval, pe_normalize_integer, pe_substitute,
)
from .smt import SmtContext
from .twn import ClosedForm, TwnLoop, TwnRejection, closed_form, compose, iterates, twn_check

SEARCH_CAP = 10**6
# The model's witness is searched over fewer iterations: each step of the
# scan evaluates every addend at n, which grows with n, and the first stable
# n of every benchmark and test input is at most 6.
WITNESS_SCAN_CAP = 10_000


class CapExceeded(Exception):
    """Internal search cap hit; treated as Unknown for the affected loop."""


@dataclass(frozen=True)
class TerminationVerdict:
    status: str  # "terminating" | "nonterminating" | "unknown"
    witness: dict[str, int] | None = None
    reason: str = ""

    @property
    def is_terminating(self) -> bool:
        return self.status == "terminating"


@dataclass
class Unsupported:
    reason: str


@dataclass
class TwnAnalysis:
    """Everything the engine and the size-bound rules need for one self-loop."""

    loop: TwnLoop  # its path holds the analyzed transition
    cf: ClosedForm
    verdict: TerminationVerdict
    iteration_bound: Bound | None  # bounds n, the runs of the whole path
    local_bound: Bound | None  # bounds steps of the path's transitions


def eventual_atom(pe: PolyExp) -> Formula:
    """Formula over the program variables: "eventually always ``pe > 0``".

    With addends ascending in asymptotic order, the sign of the expression
    settles on the sign of the top nonzero coefficient, so: some coefficient
    is positive and all above it vanish.  The empty expression is never
    positive.  Denominators are cleared first (a positive scaling preserves
    all signs) so the coefficient polynomials are integer-valued and the
    equality encoding of the atom carrier is exact.
    """
    _, pe = pe_normalize_integer(pe)
    addends = pe.addends
    if not addends:
        return FALSE
    cases = []
    for k in range(len(addends)):
        q_k = addends[k][0]
        parts: list[Formula] = [Atom(q_k)]
        for j in range(k + 1, len(addends)):
            q_j = addends[j][0]
            parts.append(normalize_atom(q_j, "=", Polynomial.zero()))
        cases.append(mk_and(parts))
    return mk_or(cases)


def nontermination_formula(loop: TwnLoop, cf: ClosedForm) -> Formula:
    """Existential formula equivalent to: some input runs forever.

    Each guard atom's truth value under the closed forms stabilizes, hence so
    does any positive boolean combination; replacing every atom by its
    eventual version therefore captures "the guard eventually always holds".
    """
    return map_atoms(
        loop.guard, lambda a: eventual_atom(pe_substitute(a.poly, cf.values))
    )


def dominance_threshold(lower: tuple[int, int], upper: tuple[int, int]) -> int:
    """Smallest verified D >= 1 with ``n * n^a1 * b1^n <= n^a2 * b2^n`` for
    all n >= D, where lower = (a1, b1) strictly precedes upper = (a2, b2) in
    asymptotic order (base major).

    Equal bases need a1 < a2, so the spare factor n fits degree-wise and
    D = 1.  For b1 < b2 (bases are naturals >= 1) the inequality says the
    ratio ``n^(a1+1-a2) * (b1/b2)^n`` is at most 1.  With e = max(0,
    a1+1-a2), the ratio is non-increasing from the first n with
    ``(n+1)^e b1 <= n^e b2`` on, so past that turning point the inequality,
    once true, stays true: gallop and bisect to the first n where it holds.
    Below the turning point the ratio increases, so if the inequality holds
    there it holds at every smaller n too, and D = 1.  Exact integer
    arithmetic throughout; nothing above SEARCH_CAP is evaluated.
    """
    a1, b1 = lower
    a2, b2 = upper
    if (b1, a1) >= (b2, a2):
        raise ValueError("addends not in ascending asymptotic order")
    if b1 == b2:
        return 1  # a1 + 1 <= a2

    def holds(n: int) -> bool:
        return n ** (a1 + 1) * b1**n <= n**a2 * b2**n

    e = max(0, a1 + 1 - a2)
    n_dec = 1
    while (n_dec + 1) ** e * b1 > n_dec**e * b2:
        n_dec += 1
        if n_dec > SEARCH_CAP:
            raise CapExceeded("ratio never turns non-increasing")
    if holds(n_dec):
        return 1
    lo, step = n_dec, 1  # holds(lo) is false
    while True:
        hi = min(lo + step, SEARCH_CAP)
        if hi == lo:
            raise CapExceeded("dominance point not found")
        if holds(hi):
            break
        lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def atom_stabilization_bound(pe: PolyExp) -> Bound:
    """Symbolic bound past which the sign of ``pe`` cannot change.

    After clearing denominators the top nonzero coefficient has magnitude
    at least 1 at integer states; past every pairwise dominance threshold
    each lower addend gives away a factor n, so once n also exceeds
    1 + sum of the lower coefficient magnitudes, the top addend dominates.
    """
    _, pe = pe_normalize_integer(pe)
    addends = pe.addends
    if len(addends) <= 1:
        return Const(1)
    d_max = 1
    for j in range(len(addends) - 1):
        _, a1, b1 = addends[j]
        _, a2, b2 = addends[j + 1]
        d_max = max(d_max, dominance_threshold((a1, b1), (a2, b2)))
    parts: list[Bound] = [Const(d_max + 1)]
    for q, _, _ in addends[:-1]:
        parts.append(bound_of_poly(q))
    return bsum(parts)


def stabilization_bound(loop: TwnLoop, cf: ClosedForm) -> Bound:
    """Bound (in the entry state) on iterations before every guard atom of
    the loop has reached its final truth value under the closed forms."""
    parts: list[Bound] = [Const(cf.start)]
    for atom in formula_atoms(loop.guard):
        pe = pe_substitute(atom.poly, cf.values)
        parts.append(atom_stabilization_bound(pe))
    return simplify(bsum(parts))


def prove_termination(loop: TwnLoop, cf: ClosedForm, smt: SmtContext) -> TerminationVerdict:
    """Unsat of the non-termination formula proves termination; a model is
    turned into a concrete witness state and sanity-checked by simulation."""
    formula = nontermination_formula(loop, cf)
    result = smt.sat_int(formula)
    if result.is_unsat:
        return TerminationVerdict("terminating")
    if not result.is_sat:
        return TerminationVerdict("unknown", reason=result.reason or "solver unknown")

    model: dict[str, int] = {}
    for v in loop.update:
        value = result.model.get(v, Fraction(0))
        if value.denominator != 1:
            return TerminationVerdict("unknown", reason="non-integer model value")
        model[v] = value.numerator
    try:
        m_hat = _numeric_stabilization_point(loop, cf, model)
    except CapExceeded:
        return TerminationVerdict("unknown", reason="stabilization search cap")
    witness = {v: pe_eval(cf[v], model, m_hat) for v in loop.update}
    if any(value.denominator != 1 for value in witness.values()):
        return TerminationVerdict("unknown", reason="non-integer witness")
    state = {v: value.numerator for v, value in witness.items()}
    current = dict(state)
    for _ in range(100):
        if not eval_formula(loop.guard, current):
            return TerminationVerdict("unknown", reason="witness failed simulation")
        current = {v: rhs.evaluate_int(current) for v, rhs in loop.update.items()}
    return TerminationVerdict("nonterminating", witness=state)


def _numeric_stabilization_point(
    loop: TwnLoop, cf: ClosedForm, state: dict[str, int]
) -> int:
    """First n, up to WITNESS_SCAN_CAP, where every guard atom's sign matches
    its eventual sign and the top nonzero addend dominates the magnitude sum
    of the lower ones.  Each addend's coefficient is evaluated at ``state``
    once; for n >= 1 an addend's value is 0 exactly where its coefficient is,
    so addends with a zero coefficient are dropped."""
    atoms = []
    for atom in formula_atoms(loop.guard):
        addends = pe_substitute(atom.poly, cf.values).addends
        atoms.append([(c, a, b) for q, a, b in addends if (c := q.evaluate(state))])
    for n in range(max(cf.start, 1), WITNESS_SCAN_CAP + 1):
        if all(_stable_at(addends, n) for addends in atoms):
            return n
    raise CapExceeded("no numeric stabilization point found")


def _stable_at(addends: list[tuple[Fraction, int, int]], n: int) -> bool:
    """The top addend outweighs the magnitude sum of the ones below it, so
    the sign is already its eventual sign (the top one's)."""
    values = [abs(c * n**a * b**n) for c, a, b in addends]
    return not values or values[-1] > sum(values[:-1])


def analyze_self_loop(t: Transition, smt: SmtContext) -> TwnAnalysis | Unsupported:
    """Full pipeline: check, closed form, termination, stabilization bound.

    The stabilization bound B counts runs of the loop's path of k transitions,
    which take k*B + k - 1 steps (2*B + 1 at k = 2); the closed-form validity
    start is added on top to cover the uncovered prefix.
    """
    try:
        loop = twn_check(t)
    except TwnRejection as exc:
        return Unsupported(str(exc))
    try:
        cf = closed_form(loop)
        verdict = prove_termination(loop, cf, smt)
        if not verdict.is_terminating:
            return TwnAnalysis(loop, cf, verdict, None, None)
        iteration_bound = stabilization_bound(loop, cf)
    except ClosedFormTooLarge as exc:
        return Unsupported(f"closed form too large: {exc}")
    except CapExceeded as exc:
        return Unsupported(f"threshold search cap exceeded: {exc}")
    k = len(loop.path)
    local = bsum([bprod([Const(k), iteration_bound]), Const(k - 1), Const(cf.start)])
    return TwnAnalysis(loop, cf, verdict, iteration_bound, simplify(local))


def twn_size_bound(analysis: TwnAnalysis, v: str) -> Bound:
    """Bound on ``|v|`` after any number of steps of the analyzed transition,
    in terms of the state at loop entry.

    Each closed-form addend ``q * n^a * b^n`` is bounded by its coefficient
    magnitude times the extremal value at n = R + start; iterated updates
    cover the runs below that start, and each proper prefix of the path the
    states inside a run.  Every part is finite, since the iteration bound
    (:func:`stabilization_bound`) is.
    """
    R = analysis.iteration_bound
    if R is None:
        return INFINITE
    reach = simplify(bsum([R, Const(analysis.cf.start)]))
    early = list(iterates(analysis.loop.update, analysis.cf.start))

    def run_size(w: str) -> Bound:
        parts: list[Bound] = []
        for q, a, b in analysis.cf[w].addends:
            factors: list[Bound] = [bound_of_poly(q)]
            factors.extend([reach] * a)
            if b != 1:
                factors.append(Exp(b, reach))
            parts.append(bprod(factors))
        parts.extend(bound_of_poly(state[w]) for state in early)
        return simplify(bsum(parts))

    path = analysis.loop.path
    sizes = [run_size(v)]
    for j in range(1, len(path)):
        prefix = compose(path[:j])[1][v]
        sizes.append(bound_subst(
            bound_of_poly(prefix), {w: run_size(w) for w in prefix.variables()}))
    return simplify(bsum(sizes))
