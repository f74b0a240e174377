"""Analysis orchestration: per-component alternation of size and runtime
bound computation, local-bound synthesis, and lifting to global bounds.

Components of the location graph are processed in topological order, so the
bounds of everything upstream are final when a component is handled.  Inside
a component: size bounds first (entry bounds are what lifting needs), then
ranking functions (whole component, retrying with singleton decreasing
sets), then closed-form analysis for the remaining self-loops, then a
recomputation of the component's size bounds with the improved runtime
bounds.  A cheap structural rule fills in transitions that are dominated by
their predecessors: a non-self-loop can fire at most once per arrival at its
source location, so the runtime bounds of the non-self-loop predecessors
bound it.

Lifting a local bound multiplies, per entry transition, the number of times
the entry can run (its global bound) with the local bound instantiated at
the entry's size bounds, and sums over the entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    diagnostics: list[str] = []

    units = sccs(p)
    cyclic = {t.tid for _, internal in units for t in internal}
    rb: dict[str, Bound] = {}
    provenance: dict[str, str] = {}
    for t in p.transitions:
        if t.tid in cyclic:
            rb[t.tid] = INFINITE
            provenance[t.tid] = "none"
        else:
            rb[t.tid] = Const(1)  # off every cycle: at most one firing per run
            provenance[t.tid] = "trivial"

    sb: SizeBoundMap = {}
    twn_analyses: dict[str, TwnAnalysis] = {}
    twn_verdicts: dict[str, dict] = {}

    for feeding, internal in units:
        for t in feeding:
            size_bounds_for_scc(p, [t], rb, sb)
        if not internal:
            continue
        scc = internal
        entries = entry_transitions(p, scc)
        size_bounds_for_scc(p, scc, rb, sb)

        if cfg.ranking_enabled:
            _ranking_phase(p, scc, entries, rb, sb, provenance, cfg, diagnostics)
        _structural_phase(p, scc, rb, provenance)
        if cfg.twn_enabled:
            _twn_phase(
                p, scc, rb, sb, provenance, cfg, twn_analyses, twn_verdicts,
                diagnostics,
            )
        _structural_phase(p, scc, rb, provenance)
        size_bounds_for_scc(p, scc, rb, sb, twn_analyses)

    overall = simplify(bsum(rb[t.tid] for t in p.transitions))
    return AnalysisResult(
        program=p,
        rb=rb,
        sb=sb,
        overall=overall,
        asymptotic=asymptotic_class(overall),
        provenance=provenance,
        twn_verdicts=twn_verdicts,
        diagnostics=diagnostics,
        timings={"analysis_s": time.perf_counter() - started},
    )


def _ranking_phase(p, scc, entries, rb, sb, provenance, cfg, diagnostics) -> None:
    tried: set[frozenset[str]] = set()
    while True:
        remaining = [t for t in scc if is_omega(rb[t.tid])]
        if not remaining:
            return
        candidates = [tuple(remaining)]
        candidates.extend((t,) for t in remaining)
        progress = False
        for cand in candidates:
            key = frozenset(t.tid for t in cand)
            if key in tried:
                continue
            tried.add(key)
            rf = synthesize_lrf(p, scc, list(cand), cfg.smt)
            if rf is None:
                continue
            label = "ranking bound for {" + ",".join(t.tid for t in cand) + "}"
            if _lift(rf_local_bound(rf, entries), entries, cand, "ranking", label,
                     rb, sb, provenance, diagnostics):
                progress = True
                break
        if not progress:
            return


def _structural_phase(p, scc, rb, provenance) -> None:
    # A non-self-loop fires at most once per arrival at its source; arrivals
    # happen only through non-self-loop predecessors (the start location has
    # no incoming transitions and is never re-entered).
    changed = True
    while changed:
        changed = False
        for t in scc:
            if not is_omega(rb[t.tid]) or t.is_self_loop:
                continue
            preds = [r for r in p.incoming(t.src) if not r.is_self_loop]
            if any(is_omega(rb[r.tid]) for r in preds):
                continue
            rb[t.tid] = simplify(bsum(rb[r.tid] for r in preds))
            provenance[t.tid] = "trivial"
            changed = True


def _twn_phase(
    p, scc, rb, sb, provenance, cfg, twn_analyses, twn_verdicts, diagnostics
) -> None:
    for t in scc:
        if not is_omega(rb[t.tid]) or not t.is_self_loop:
            continue
        outcome = analyze_self_loop(t, cfg.smt)
        if isinstance(outcome, Unsupported):
            twn_verdicts[t.tid] = {"status": "unsupported", "reason": outcome.reason}
            diagnostics.append(f"{t.tid}: twn analysis unsupported: {outcome.reason}")
            continue
        twn_analyses[t.tid] = outcome
        verdict = outcome.verdict
        twn_verdicts[t.tid] = {
            "status": verdict.status,
            **({"witness": verdict.witness} if verdict.witness else {}),
            **({"reason": verdict.reason} if verdict.reason else {}),
        }
        if outcome.local_bound is not None:
            _lift(outcome.local_bound, entry_transitions(p, [t]), [t], "twn",
                  f"{t.tid}: twn bound", rb, sb, provenance, diagnostics)


def _lift(local, entries, members, technique, label, rb, sb, provenance,
          diagnostics) -> bool:
    """Give every transition of ``members`` the lifted ``local`` bound, or,
    if it lifts to ω, note the entries that blocked it under ``label``."""
    lifted = lift_local_bound(local, entries, rb, sb)
    if is_omega(lifted):
        blocking = [r.tid for r in entries if is_omega(rb[r.tid])]
        diagnostics.append(
            f"{label} blocked by entries: " + (",".join(blocking) or "size bounds")
        )
        return False
    for t in members:
        rb[t.tid] = lifted
        provenance[t.tid] = technique
    return True
