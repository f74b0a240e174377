"""Integer transition systems: guarded transitions with polynomial updates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .formula import Formula, formula_vars
from .poly import Polynomial


class ProgramError(Exception):
    pass


@dataclass(eq=False, slots=True)
class Transition:
    tid: str
    src: str
    guard: Formula
    update: dict[str, Polynomial]
    tgt: str

    def __repr__(self) -> str:
        return f"Transition({self.tid}: {self.src} -> {self.tgt})"

    @property
    def is_self_loop(self) -> bool:
        return self.src == self.tgt


@dataclass(eq=False, slots=True)
class Program:
    vars: tuple[str, ...]
    locs: frozenset[str]
    init: str
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        validate_program(self)

    def transition(self, tid: str) -> Transition:
        for t in self.transitions:
            if t.tid == tid:
                return t
        raise ProgramError(f"no transition named {tid!r}")

    def incoming(self, loc: str) -> list[Transition]:
        return [t for t in self.transitions if t.tgt == loc]


def validate_program(p: Program) -> None:
    if len(set(p.vars)) != len(p.vars):
        raise ProgramError("duplicate variable declaration")
    seen: set[str] = set()
    if p.init not in p.locs:
        raise ProgramError("initial location missing from location set")
    var_set = set(p.vars)
    for t in p.transitions:
        if t.tid in seen:
            raise ProgramError(f"duplicate transition id {t.tid}")
        seen.add(t.tid)
        if t.tgt == p.init:
            raise ProgramError(f"{t.tid} targets the start symbol {p.init}")
        if t.src not in p.locs or t.tgt not in p.locs:
            raise ProgramError(f"{t.tid} references unknown location")
        if set(t.update) != var_set:
            raise ProgramError(f"{t.tid} update is not total over the variables")
        for v, rhs in t.update.items():
            if not rhs.is_integral():
                raise ProgramError(f"{t.tid}: non-integer coefficient in update of {v}")
            if not rhs.variables() <= var_set:
                raise ProgramError(f"{t.tid}: unknown variable in update of {v}")
        if not formula_vars(t.guard) <= var_set:
            raise ProgramError(f"{t.tid}: unknown variable in guard")


def compose_updates(
    first: Mapping[str, Polynomial], second: Mapping[str, Polynomial]
) -> dict[str, Polynomial]:
    """Update equal to applying ``first`` and then ``second``."""
    return {v: rhs.substitute(dict(first)) for v, rhs in second.items()}
