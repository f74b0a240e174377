"""Soundness check of analysis results against exhaustive runs.

Every finite runtime bound RB(t), size bound SB(t,v) and overall bound is
compared with what ``polybound.sim.exhaustive_run`` observes from a seeded
sample of small initial states, which always includes the all-zero state.
The check runs outside the timed region.
"""

from __future__ import annotations

import itertools
import random

from polybound import bound_eval, bound_str, exhaustive_run
from polybound.bounds import is_omega
from polybound.sim import make_config, step

GRID = range(-3, 4)
STATES = 16  # sampled initial states per program, the zero state included
MAX_STEPS = 2000
VISITED_CAP = 100_000


def initial_states(program, seed: int, pid: str) -> list[dict[str, int]]:
    rng = random.Random(f"{seed}:{pid}")
    grid = [s for s in itertools.product(GRID, repeat=len(program.vars)) if any(s)]
    picked = [(0,) * len(program.vars)] + rng.sample(grid, min(STATES - 1, len(grid)))
    return [dict(zip(program.vars, values)) for values in picked]


def observed_sizes(program, state) -> dict[tuple[str, str], int]:
    """Largest ``|v|`` right after each transition, over every reachable
    configuration; call only when the reachable set is known to be finite."""
    root = make_config(program, program.init, state)
    seen = {root}
    frontier = [root]
    sizes: dict[tuple[str, str], int] = {}
    while frontier:
        successors = []
        for config in frontier:
            for t, succ in step(program, config):
                for v, value in zip(program.vars, succ.values):
                    key = (t.tid, v)
                    sizes[key] = max(sizes.get(key, 0), abs(value))
                if succ not in seen:
                    seen.add(succ)
                    successors.append(succ)
        frontier = successors
    return sizes


def violations(program, result, states) -> tuple[list[str], int]:
    """Bounds below an observed run, and how many states gave a verdict."""
    found: list[str] = []
    checked = 0
    for state in states:
        size = {v: abs(n) for v, n in state.items()}
        run = exhaustive_run(program, state, MAX_STEPS, VISITED_CAP)
        if run.exceeded:
            if run.exceeded_reason == "cycle" and not is_omega(result.overall):
                found.append(f"finite overall bound but a reachable cycle from {state}")
            continue
        checked += 1
        for tid, count in run.per_transition.items():
            bound = result.rb[tid]
            if not is_omega(bound) and count > bound_eval(bound, size):
                found.append(f"RB({tid}) = {bound_str(bound)} < {count} steps from {state}")
        if not is_omega(result.overall) and run.rc > bound_eval(result.overall, size):
            found.append(
                f"overall {bound_str(result.overall)} < {run.rc} steps from {state}"
            )
        for (tid, v), value in observed_sizes(program, state).items():
            bound = result.sb[(tid, v)]
            if not is_omega(bound) and value > bound_eval(bound, size):
                found.append(f"SB({tid},{v}) = {bound_str(bound)} < |{v}| = {value} from {state}")
    return found, checked
