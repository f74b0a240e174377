"""Program representation: polynomials, guards, transitions, graph analysis."""

from .formula import (
    And,
    Atom,
    DnfCapExceeded,
    FALSE,
    Formula,
    Or,
    TRUE,
    atoms,
    dnf,
    eval_formula,
    formula_vars,
    map_atoms,
    mk_and,
    mk_or,
    normalize_atom,
    substitute,
)
from .graph import SccDecomposition, entry_transitions, sccs
from .parser import ParseError, parse_program, print_program
from .poly import Polynomial
from .program import Program, ProgramError, Transition, compose_updates

__all__ = [
    "And",
    "Atom",
    "DnfCapExceeded",
    "FALSE",
    "Formula",
    "Or",
    "ParseError",
    "Polynomial",
    "Program",
    "ProgramError",
    "SccDecomposition",
    "TRUE",
    "Transition",
    "atoms",
    "compose_updates",
    "dnf",
    "entry_transitions",
    "eval_formula",
    "formula_vars",
    "map_atoms",
    "mk_and",
    "mk_or",
    "normalize_atom",
    "parse_program",
    "print_program",
    "sccs",
    "substitute",
]
