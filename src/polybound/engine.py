"""Analysis orchestration: per-component alternation of size and runtime
bound computation, local-bound synthesis, and lifting to global bounds.

Components of the location graph are processed in topological order, so the
bounds of everything upstream are final when a component is handled.  Inside
a component: size bounds first (entry bounds are what lifting needs), then
ranking functions (whole component, retrying with singleton decreasing
sets), then a cheap structural rule, then closed-form analysis for the
remaining self-loops, then a recomputation of the component's size bounds
with the improved runtime bounds.  The structural rule fills in transitions
that are dominated by their predecessors: a non-self-loop can fire at most
once per arrival at its source location, so the runtime bounds of the
non-self-loop predecessors bound it.  It runs once, before closed forms:
those bound only self-loops, which the rule neither reads nor writes.

Lifting a local bound multiplies, per entry transition, the number of times
the entry can run (its global bound) with the local bound instantiated at
the entry's size bounds, and sums over the entries.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .bounds import (
    AsymptoticClass,
    Bound,
    Const,
    INFINITE,
    asymptotic_class,
    bound_subst,
    bound_vars,
    bprod,
    bsum,
    is_omega,
    simplify,
)
from .ir import Program, Transition, entry_transitions, sccs
from .ranking import rf_local_bound, synthesize_lrf
from .sizebounds import SizeBoundMap, size_bounds_for_scc
from .smt import SmtContext
from .twnbounds import TwnAnalysis, Unsupported, analyze_self_loop


@dataclass
class AnalysisConfig:
    twn_enabled: bool = True
    ranking_enabled: bool = True
    smt: SmtContext = field(default_factory=SmtContext)


@dataclass
class AnalysisResult:
    program: Program
    rb: dict[str, Bound]
    sb: SizeBoundMap
    overall: Bound
    asymptotic: AsymptoticClass
    provenance: dict[str, str]  # transition id -> ranking | twn | trivial | none
    twn_verdicts: dict[str, dict]
    diagnostics: list[str]
    timings: dict[str, float]


def lift_local_bound(
    local: Bound,
    entries: list[Transition],
    rb: dict[str, Bound],
    sb: SizeBoundMap,
) -> Bound:
    """Global bound from a local one: per entry, (runs started by the entry)
    times (local bound at the entry's size bounds), summed.  No entries means
    the subprogram is unreachable and the bound is zero."""
    parts: list[Bound] = []
    for r in entries:
        mapping = {v: sb[(r.tid, v)] for v in bound_vars(local)}
        parts.append(bprod([rb[r.tid], bound_subst(local, mapping)]))
    return simplify(bsum(parts))


def analyze(p: Program, cfg: AnalysisConfig | None = None) -> AnalysisResult:
    cfg = cfg or AnalysisConfig()
    started = time.perf_counter()
    units = sccs(p)
    cyclic = {t.tid for _, internal in units for t in internal}
    state = _Analysis(p, cfg.smt)
    for t in p.transitions:
        if t.tid in cyclic:
            state.rb[t.tid], state.provenance[t.tid] = INFINITE, "none"
        else:  # off every cycle: at most one firing per run
            state.rb[t.tid], state.provenance[t.tid] = Const(1), "trivial"

    for feeding, scc in units:
        for t in feeding:
            size_bounds_for_scc(p, [t], [], state.rb, state.sb)
        if not scc:
            continue
        # a cyclic unit's feeding transitions are its entries
        size_bounds_for_scc(p, scc, feeding, state.rb, state.sb)
        if cfg.ranking_enabled:
            state.ranking_phase(scc, feeding)
        # once: twn bounds only self-loops, which it neither reads nor writes
        state.structural_phase(scc)
        if cfg.twn_enabled:
            state.twn_phase(scc)
        size_bounds_for_scc(p, scc, feeding, state.rb, state.sb, state.twn_analyses)

    overall = simplify(bsum(state.rb[t.tid] for t in p.transitions))
    return AnalysisResult(
        program=p,
        rb=state.rb,
        sb=state.sb,
        overall=overall,
        asymptotic=asymptotic_class(overall),
        provenance=state.provenance,
        twn_verdicts=state.twn_verdicts,
        diagnostics=state.diagnostics,
        timings={"analysis_s": time.perf_counter() - started},
    )


@dataclass
class _Analysis:
    """One analysis in progress: the bounds found so far, and how."""

    p: Program
    smt: SmtContext
    rb: dict[str, Bound] = field(default_factory=dict)
    sb: SizeBoundMap = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)
    twn_analyses: dict[str, TwnAnalysis] = field(default_factory=dict)
    twn_verdicts: dict[str, dict] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)

    def ranking_phase(self, scc: list[Transition], entries: list[Transition]) -> None:
        tried: set[frozenset[str]] = set()
        while remaining := [t for t in scc if is_omega(self.rb[t.tid])]:
            for cand in [tuple(remaining), *((t,) for t in remaining)]:
                key = frozenset(t.tid for t in cand)
                if key in tried:
                    continue
                tried.add(key)
                rf = synthesize_lrf(self.p, scc, list(cand), self.smt)
                if rf is None:
                    continue
                label = "ranking bound for {" + ",".join(t.tid for t in cand) + "}"
                if self.lift(rf_local_bound(rf, entries), entries, cand, "ranking", label):
                    break
            else:
                return

    def structural_phase(self, scc: list[Transition]) -> None:
        # A non-self-loop fires at most once per arrival at its source;
        # arrivals happen only through non-self-loop predecessors (the start
        # location has no incoming transitions and is never re-entered).
        changed = True
        while changed:
            changed = False
            for t in scc:
                if not is_omega(self.rb[t.tid]) or t.is_self_loop:
                    continue
                preds = [r for r in self.p.incoming(t.src) if not r.is_self_loop]
                if any(is_omega(self.rb[r.tid]) for r in preds):
                    continue
                self.rb[t.tid] = simplify(bsum(self.rb[r.tid] for r in preds))
                self.provenance[t.tid] = "trivial"
                changed = True

    def twn_phase(self, scc: list[Transition]) -> None:
        for t in scc:
            if not is_omega(self.rb[t.tid]) or not t.is_self_loop:
                continue
            outcome = analyze_self_loop(t, self.smt)
            if isinstance(outcome, Unsupported):
                self.twn_verdicts[t.tid] = {"status": "unsupported", "reason": outcome.reason}
                self.diagnostics.append(f"{t.tid}: twn analysis unsupported: {outcome.reason}")
                continue
            self.twn_analyses[t.tid] = outcome
            # status, then witness and reason where the verdict has them
            self.twn_verdicts[t.tid] = {k: v for k, v in asdict(outcome.verdict).items() if v}
            if outcome.local_bound is not None:
                self.lift(outcome.local_bound, entry_transitions(self.p, [t]), [t],
                          "twn", f"{t.tid}: twn bound")

    def lift(self, local, entries, members, technique, label) -> bool:
        """Give every transition of ``members`` the lifted ``local`` bound, or,
        if it lifts to ω, note the entries that blocked it under ``label``."""
        lifted = lift_local_bound(local, entries, self.rb, self.sb)
        if is_omega(lifted):
            blocking = [r.tid for r in entries if is_omega(self.rb[r.tid])]
            self.diagnostics.append(
                f"{label} blocked by entries: " + (",".join(blocking) or "size bounds")
            )
            return False
        for t in members:
            self.rb[t.tid] = lifted
            self.provenance[t.tid] = technique
        return True
