"""Program representation: polynomials, guards, transitions, graph analysis.

Like the package root, this imports each exported name's submodule on first
access.
"""

from .. import _lazy_getattr

_EXPORTS = {
    "formula": (
        "And", "Atom", "DnfCapExceeded", "FALSE", "Formula", "Or", "TRUE", "atoms",
        "dnf", "eval_formula", "formula_vars", "map_atoms", "mk_and", "mk_or",
        "normalize_atom", "substitute",
    ),
    "graph": ("entry_transitions", "sccs"),
    "parser": ("ParseError", "parse_program"),
    "poly": ("Polynomial",),
    "program": ("Program", "ProgramError", "Transition", "compose_updates"),
}

__getattr__ = _lazy_getattr(__name__, globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
