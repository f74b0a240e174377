"""The benchmark's input programs, one list per workload, made from a seed.

Each workload is a list of ``Job``s: a program id, its ITS source text and
the analysis configuration it runs under.  Generated workloads keep a fixed
mix of program shapes and draw only coefficients and constants from the
seed, so one seed's pass costs about as much as another's
and the run-to-run spread of the timings stays small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ROADMAP defect: RB(t1) = x, but at x = 0 the loop fires once.
OFF_BY_ONE = """(GOAL COMPLEXITY)
(STARTTERM (FUNCTIONSYMBOLS l0))
(VAR x)
(RULES
  l0(x) -> l1(x)
  l1(x) -> l1(x-2) :|: x >= 0
)
"""

# (locations on the ring, variables, locations with an inner decrement loop).
# Five rings of 1.5-2.5 s each: a pass of about 10 s fits three or four times
# into a run.  Rings of 5-6 locations (LPs of up to 42 assertions) varied
# about twice as much per measured second on a shared machine.
RING_SHAPES = ((3, 2, (2,)), (3, 3, ()), (4, 2, ()), (4, 2, (2,)), (4, 3, ()))

# ROADMAP's 98 s loop runs at k = 1000; one k per stratum keeps a pass's
# cost steady while k still varies with the seed.
K_STRATA = tuple((150 + 17 * i, 166 + 17 * i) for i in range(6))


@dataclass(frozen=True)
class Job:
    pid: str
    text: str
    twn: bool = True
    ranking: bool = True


def its(variables: list[str], rules: list[str]) -> str:
    return (
        "(GOAL COMPLEXITY)\n(STARTTERM (FUNCTIONSYMBOLS l0))\n"
        f"(VAR {' '.join(variables)})\n(RULES\n"
        + "".join(f"  {rule}\n" for rule in rules)
        + ")\n"
    )


def fixtures(seed: int) -> list[Job]:
    """The repository's fixtures plus the off-by-one input; the seed only
    picks the oracle's initial states."""
    paths = sorted((ROOT / "fixtures").glob("*.its"))
    if not paths:
        raise FileNotFoundError(f"no fixtures under {ROOT / 'fixtures'}")
    jobs = [Job(p.stem, p.read_text(encoding="utf-8")) for p in paths]
    jobs.append(Job("off_by_one", OFF_BY_ONE))
    return jobs


def ring(rng: random.Random, locations: int, nvars: int, loops: tuple[int, ...]) -> str:
    """One SCC: a ring l1 -> ... -> l<locations> -> l1 whose closing edge
    counts x1 down.  The other ring edges alternately reset and increment
    the other variables in turn, and the listed locations get a self-loop
    that counts one of them down.  The seed draws only the constants, so
    every seed asks the solver the same number of queries of the same size;
    steps stay 1 and constants nonzero, since a step of 2 or a zero constant
    changes how long the ranking problem takes to solve.
    """
    xs = [f"x{i + 1}" for i in range(nvars)]
    args = ",".join(xs)
    rules = [f"l0({args}) -> l1({args})"]
    for i in range(1, locations + 1):
        update = list(xs)
        guard = ""
        if i == locations:
            update[0] = "x1-1"
            guard = " :|: x1 > 0"
        elif i % 2:
            update[1 + (i - 1) % (nvars - 1)] = str(rng.randint(1, 3))
        else:
            k = 1 + (i - 1) % (nvars - 1)
            update[k] = f"{xs[k]}+{rng.randint(1, 3)}"
        rules.append(f"l{i}({args}) -> l{i % locations + 1}({','.join(update)}){guard}")
    for i in loops:
        k = 1 + i % (nvars - 1)
        update = list(xs)
        update[k] = f"{xs[k]}-1"
        rules.append(f"l{i}({args}) -> l{i}({','.join(update)}) :|: {xs[k]} > 0")
    return its(xs, rules)


def ranking_wide(seed: int) -> list[Job]:
    rng = random.Random(f"ranking_wide:{seed}")
    return [
        Job(f"ring{n}_l{locs}v{nvars}", ring(rng, locs, nvars, loops), twn=False)
        for n, (locs, nvars, loops) in enumerate(RING_SHAPES)
    ]


def self_loop(variables: list[str], rhs: list[str], guard: str) -> str:
    args = ",".join(variables)
    return its(variables, [
        f"l0({args}) -> l1({args})",
        f"l1({args}) -> l1({','.join(rhs)}) :|: {guard}",
    ])


def twn_loops(seed: int) -> list[Job]:
    """Twn self-loops: the ROADMAP dominance loop once per ``k`` stratum,
    then three each of nonterminating loops (sat answer and witness),
    chained loops with negative self-coefficients, and many-variable
    non-linear guards."""
    rng = random.Random(f"twn_loops:{seed}")
    r = rng.randint
    xyz = ["x", "y", "z"]
    xs = [f"x{i}" for i in range(1, 6)]
    programs: list[tuple[str, str]] = []
    for low, high in K_STRATA:
        k = r(low, high)
        programs.append((f"dominance_k{k}", self_loop(
            xyz, [f"{k + 1}*x", f"{k}*y+z", f"{k}*z"], "y > x && x > 0")))
    programs += [
        ("nonterm_shift", self_loop(
            ["x", "y"], [f"{r(1, 3)}*x+y", "y"], "x > 0 && y >= 0")),
        ("nonterm_feed", self_loop(
            ["x", "y"], [f"{r(1, 3)}*x", f"{r(1, 3)}*y+x"], f"x > 0 && y > {r(0, 5)}")),
        ("nonterm_race", self_loop(
            ["x", "y"], [f"x+{r(1, 4)}", f"{r(2, 3)}*y"], "x > y")),
        ("chained_flip", self_loop(
            ["x", "y"], [f"-{r(2, 5)}*x", "y"], "x > 0 && y > 0")),
        ("chained_count", self_loop(
            ["x", "y"], ["-x", f"y-{r(1, 3)}"], "y > 0")),
        ("chained_mixed", self_loop(
            xyz, [f"-{r(2, 4)}*x+z", "y-1", "z"], "y > 0 && x > z")),
        ("nonlinear_geo", self_loop(
            xs[:4],
            [f"{r(3, 4)}*x1", f"{r(5, 8)}*x2-{r(1, 9)}*x3^3", "x3", "x4+x1"],
            "x1^2 + x3^5 < x2 && x1 != 0")),
        ("nonlinear_wide", self_loop(
            xs,
            [f"{r(2, 3)}*x1+x2^2", f"{r(2, 3)}*x2+x3", "x3", "x4-x5", "x5"],
            "x1^2 + x4 < x2*x3 && x5 > 0")),
        ("nonlinear_prod", self_loop(
            xs[:4],
            [f"{r(2, 3)}*x1", "x2", f"x3+x2^2", f"x4-{r(1, 3)}"],
            "x1*x2 > x3^2 && x4 > 0")),
    ]
    return [Job(pid, text, ranking=False) for pid, text in programs]


WORKLOADS = {"fixtures": fixtures, "ranking_wide": ranking_wide, "twn_loops": twn_loops}
