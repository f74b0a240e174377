"""Control-flow analysis over the location graph: SCCs, cycles, entries."""

from __future__ import annotations

from .program import Program, Transition


def sccs(p: Program) -> list[tuple[list[Transition], list[Transition]]]:
    """Per location SCC in topological order (Tarjan): the transitions
    feeding into it from earlier components, then its internal ones
    (declaration order; empty for an SCC without a cycle).  A transition is
    cyclic iff it is internal to some SCC."""
    order = _location_order(p)
    succ: dict[str, list[str]] = {loc: [] for loc in order}
    for t in p.transitions:
        succ[t.src].append(t.tgt)

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    finished: list[list[str]] = []  # reverse topological

    for root in order:
        if root in index:
            continue
        # iterative Tarjan: (node, iterator position)
        work = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = succ[node]
            while pos < len(children):
                child = children[pos]
                pos += 1
                if child not in index:
                    work[-1] = (node, pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                finished.append(comp)
            if work:
                parent, ppos = work[-1]
                low[parent] = min(low[parent], low[node])
                work[-1] = (parent, ppos)

    loc_component: dict[str, int] = {}
    for cid, comp in enumerate(reversed(finished)):  # topological ids
        for loc in comp:
            loc_component[loc] = cid
    units = [([], []) for _ in finished]
    for t in p.transitions:
        src, tgt = loc_component[t.src], loc_component[t.tgt]
        if src == tgt:
            units[tgt][1].append(t)
        else:
            units[tgt][0].append(t)
    return units


def _location_order(p: Program) -> list[str]:
    order = [p.init]
    seen = {p.init}
    for t in p.transitions:
        for loc in (t.src, t.tgt):
            if loc not in seen:
                seen.add(loc)
                order.append(loc)
    for loc in sorted(p.locs):
        if loc not in seen:
            seen.add(loc)
            order.append(loc)
    return order


def entry_transitions(p: Program, members) -> list[Transition]:
    """Transitions outside ``members`` whose target starts one inside."""
    member_set = {t.tid for t in members}
    sources = {t.src for t in members}
    return [t for t in p.transitions if t.tid not in member_set and t.tgt in sources]
