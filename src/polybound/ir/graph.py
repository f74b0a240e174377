"""Control-flow analysis over the location graph: SCCs, cycles, entries.

The SCCs come from Kosaraju's two passes.  The first searches the successors
from every location in first-appearance order; the second searches the
predecessors from each location not yet placed, latest finished first, and
each such search collects one SCC.  Tarjan's algorithm, over the same
search, emits an SCC when its first-discovered location finishes, which is
the latest finish in the SCC, so both give the same units in the same order.
"""

from __future__ import annotations

from .program import Program, Transition


def sccs(p: Program) -> list[tuple[list[Transition], list[Transition]]]:
    """Per location SCC in topological order: the transitions feeding into
    it from earlier components, then its internal ones (declaration order;
    empty for an SCC without a cycle).  A transition is cyclic iff it is
    internal to some SCC."""
    succ: dict[str, list[str]] = {p.init: []}  # keyed in first-appearance order
    for t in p.transitions:
        succ.setdefault(t.src, []).append(t.tgt)
        succ.setdefault(t.tgt, [])
    for loc in sorted(p.locs):
        succ.setdefault(loc, [])
    pred: dict[str, list[str]] = {loc: [] for loc in succ}
    for t in p.transitions:
        pred[t.tgt].append(t.src)

    finished = _post_order(succ, succ, set())
    placed: set[str] = set()
    components = []
    for loc in reversed(finished):
        if loc not in placed:
            components.append(_post_order(pred, [loc], placed))
    unit_of = {loc: k for k, comp in enumerate(components) for loc in comp}
    units = [([], []) for _ in components]
    for t in p.transitions:
        feeding, internal = units[unit_of[t.tgt]]
        (internal if unit_of[t.src] == unit_of[t.tgt] else feeding).append(t)
    return units


def _post_order(adjacency: dict[str, list[str]], roots, seen: set[str]) -> list[str]:
    """The locations a depth-first search from ``roots`` reaches outside
    ``seen``, in the order it finishes them; adds them to ``seen``."""
    order: list[str] = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(adjacency[root]))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(adjacency[child])))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


def entry_transitions(p: Program, members) -> list[Transition]:
    """Transitions outside ``members`` whose target starts one inside."""
    member_set = {t.tid for t in members}
    sources = {t.src for t in members}
    return [t for t in p.transitions if t.tid not in member_set and t.tgt in sources]
