"""Transmutation kernels connecting pairs of one-dimensional operators.

Four layers sit over ``errors``, each module importing only earlier ones:

* ``specfun`` / ``expr`` - scalar special functions and a small expression
  DSL with second-order jets over them;
* ``operators`` / ``kernels`` - differential operator pairs and the
  catalog of closed-form kernel cases;
* ``quadrature`` / ``conditions`` - the weighted Gauss-Jacobi transform,
  and the kernel existence checks with the identity T f0 = f1;
* ``goursat`` - a characteristic-grid solver producing kernels
  numerically when no closed form is listed, plus grid diagnostics.

``cli`` wires everything into the ``transmute`` command.
"""

__version__ = "0.1.0"

from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ExpressionError,
    NumericalError,
    ParseError,
    PoleError,
    RangeError,
    SpecFunError,
    TransmuteError,
    UnboundSymbolError,
    UsageError,
)
from .expr import Jet2, evaluate, evaluate_jet, parse, to_string
from .kernels import TransmutationCase, describe, get_case, list_cases
from .quadrature import apply_transmutation, jacobi_rule
from .conditions import VerifyConfig, VerificationReport, identity_error, verify_all
from .goursat import GoursatProblem, problem_from_case, solve

__all__ = [
    "__version__",
    "AdmissibilityError",
    "ConvergenceError",
    "DomainError",
    "ExpressionError",
    "NumericalError",
    "ParseError",
    "PoleError",
    "RangeError",
    "SpecFunError",
    "TransmuteError",
    "UnboundSymbolError",
    "UsageError",
    "Jet2",
    "evaluate",
    "evaluate_jet",
    "parse",
    "to_string",
    "TransmutationCase",
    "describe",
    "get_case",
    "list_cases",
    "VerifyConfig",
    "VerificationReport",
    "verify_all",
    "apply_transmutation",
    "identity_error",
    "jacobi_rule",
    "GoursatProblem",
    "problem_from_case",
    "solve",
]
