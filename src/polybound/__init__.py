"""polybound: symbolic runtime bounds for integer transition systems.

Combines two bound sources under one lifting scheme: exact closed-form
analysis for self-loops with triangular, weakly non-linear updates (complete
for that class, including non-linear arithmetic), and linear ranking
functions for everything else.  Local bounds are lifted to global
per-transition bounds via entry-transition counts and size bounds.
"""

from .bounds import (
    AsymptoticClass,
    Bound,
    OMEGA,
    asymptotic_class,
    bound_eval,
    bound_of_poly,
    bound_str,
    bound_subst,
    simplify,
)
from .engine import AnalysisConfig, AnalysisResult, analyze, lift_local_bound
from .ir import ParseError, Polynomial, Program, Transition, parse_program, print_program
from .sim import Configuration, ExhaustiveResult, exhaustive_run, step
from .smt import SmtContext, SmtResult
from .twn import ClosedForm, TwnLoop, closed_form, twn_check
from .twnbounds import (
    TerminationVerdict,
    TwnAnalysis,
    prove_termination,
    stabilization_bound,
    twn_size_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "AsymptoticClass",
    "Bound",
    "ClosedForm",
    "Configuration",
    "ExhaustiveResult",
    "OMEGA",
    "ParseError",
    "Polynomial",
    "Program",
    "SmtContext",
    "SmtResult",
    "TerminationVerdict",
    "Transition",
    "TwnAnalysis",
    "TwnLoop",
    "analyze",
    "asymptotic_class",
    "bound_eval",
    "bound_of_poly",
    "bound_str",
    "bound_subst",
    "closed_form",
    "exhaustive_run",
    "lift_local_bound",
    "parse_program",
    "print_program",
    "prove_termination",
    "simplify",
    "stabilization_bound",
    "step",
    "twn_check",
    "twn_size_bound",
    "__version__",
]
