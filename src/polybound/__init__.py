"""polybound: symbolic runtime bounds for integer transition systems.

Combines two bound sources under one lifting scheme: exact closed-form
analysis for self-loops with triangular, weakly non-linear updates (complete
for that class, including non-linear arithmetic), and linear ranking
functions for everything else.  Local bounds are lifted to global
per-transition bounds via entry-transition counts and size bounds.

The exported names, and the submodules by their own names, are imported on
first access (PEP 562), so ``python -m polybound.minismt`` loads only the
modules the bundled solver uses.
"""

from importlib import import_module

__version__ = "0.1.0"


def _lazy_getattr(package: str, namespace: dict, sources: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` for *package* exporting ``sources[module]``
    from each submodule; the value is cached in *namespace*, the package's
    globals, so each name is looked up once."""
    origin = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str):
        if name in origin:
            value = getattr(import_module(f"{package}.{origin[name]}"), name)
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    return __getattr__


class _Value:
    """``==``, ``hash`` and ``repr`` of the ``__slots__`` fields' tuple, as a
    dataclass has them, without :mod:`dataclasses` (which loads :mod:`inspect`)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


_EXPORTS = {
    "bounds": (
        "AsymptoticClass", "Bound", "OMEGA", "asymptotic_class", "bound_eval",
        "bound_of_poly", "bound_str", "bound_subst", "simplify",
    ),
    "engine": ("AnalysisConfig", "AnalysisResult", "analyze", "lift_local_bound"),
    "ir": ("ParseError", "Polynomial", "Program", "Transition", "parse_program"),
    "sim": ("Configuration", "ExhaustiveResult", "exhaustive_run", "step"),
    "smt": ("SmtContext", "SmtResult"),
    "twn": ("ClosedForm", "TwnLoop", "closed_form", "twn_check"),
    "twnbounds": (
        "TerminationVerdict", "TwnAnalysis", "prove_termination",
        "stabilization_bound", "twn_size_bound",
    ),
}

__getattr__ = _lazy_getattr(__name__, globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names) + ["__version__"]
