"""Executable semantics and an exhaustive-search runtime oracle.

The oracle explores every nondeterministic branch of a program from a given
initial state and reports the exact runtime complexity (longest evaluation)
together with, per transition, the largest number of times that transition
occurs on any single path.  Those are precisely the quantities a global
runtime bound has to dominate, so the oracle anchors the soundness tests.

Exact answers are only reported for finite, acyclic configuration spaces that
fit the step and size budgets; everything else is an honest ``Exceeded``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .ir import Program, Transition, eval_formula

State = Mapping[str, int]

# Largest bit length of a value the oracle explores: a self-squaring update
# doubles it every step, so without a cap one value outgrows memory within a
# few dozen steps, long before the step budget ends the run.
VALUE_BITS_CAP = 2**16


@dataclass(frozen=True)
class Configuration:
    loc: str
    values: tuple[int, ...]  # aligned with program variable order

    def state(self, p: Program) -> dict[str, int]:
        return dict(zip(p.vars, self.values))


def make_config(p: Program, loc: str, state: State) -> Configuration:
    return Configuration(loc, tuple(int(state[v]) for v in p.vars))


def step(p: Program, c: Configuration) -> list[tuple[Transition, Configuration]]:
    """All evaluation steps from ``c``: enabled transitions with successors."""
    state = c.state(p)
    out = []
    for t in p.transitions:
        if t.src != c.loc:
            continue
        if not eval_formula(t.guard, state):
            continue
        values = tuple(t.update[v].evaluate_int(state) for v in p.vars)
        out.append((t, Configuration(t.tgt, values)))
    return out


@dataclass
class ExhaustiveResult:
    rc: int | None  # None iff exceeded
    exceeded: bool
    exceeded_reason: str = ""  # "cycle" | "depth" | "cap" | "size"
    per_transition: dict[str, int] = field(default_factory=dict)
    explored: int = 0


class _Exceeded(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def exhaustive_run(
    p: Program,
    initial_state: State,
    max_steps: int,
    visited_cap: int = 10**6,
) -> ExhaustiveResult:
    """Explore all branches from the initial configuration.

    ``rc`` is the supremum of path lengths and ``per_transition[t]`` the
    supremum over paths of the number of ``t``-steps (suprema of different
    transitions may come from different paths).  A cycle in the reachable
    configuration graph, a path longer than ``max_steps``, more than
    ``visited_cap`` distinct configurations, or a value longer than
    ``VALUE_BITS_CAP`` bits all yield ``Exceeded`` rather than a wrong number.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    edges: dict[Configuration, list[tuple[str, Configuration]]] = {}  # the visited ones
    on_path: set[Configuration] = set()
    stack: list[tuple[Configuration, Iterator[tuple[str, Configuration]]]] = []
    depth: dict[Configuration, int] = {}  # in finishing order: children first

    def enter(node: Configuration) -> None:
        if any(v.bit_length() > VALUE_BITS_CAP for v in node.values):
            raise _Exceeded("size")
        edges[node] = children = [(t.tid, c2) for t, c2 in step(p, node)]
        if len(edges) > visited_cap:
            raise _Exceeded("cap")
        if len(stack) >= max_steps and children:
            raise _Exceeded("depth")
        on_path.add(node)
        stack.append((node, iter(children)))

    root = make_config(p, p.init, initial_state)
    try:
        enter(root)
        while stack:
            node, children = stack[-1]
            for _, child in children:
                if child in on_path:
                    raise _Exceeded("cycle")
                if child not in edges:
                    enter(child)
                    break
            else:
                stack.pop()
                on_path.remove(node)
                depth[node] = max((1 + depth[c] for _, c in edges[node]), default=0)
    except _Exceeded as exc:
        return ExhaustiveResult(None, True, exc.reason, {}, len(edges))

    if depth[root] > max_steps:
        return ExhaustiveResult(None, True, "depth", {}, len(edges))

    counts: dict[str, int] = {}
    for t in p.transitions:
        best: dict[Configuration, int] = {}
        for node in depth:
            best[node] = max(
                ((tid == t.tid) + best[child] for tid, child in edges[node]),
                default=0,
            )
        counts[t.tid] = best[root]
    return ExhaustiveResult(depth[root], False, "", counts, len(edges))
