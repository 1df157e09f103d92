"""Amplitude, phase and uncertainty toolkit for oscillators with
time-dependent mass and frequency.

The package solves the auxiliary equation sigma'' + Omega^2(t) sigma =
K/sigma^3 by closed-form superposition and as the modulus of an adaptively
integrated complex solution of the reduced linear equation, accumulates
phases, evaluates variances and transformation coefficients, implements
the constant m*omega minimum-uncertainty criterion, and carries the odd
power-series machinery of the Bessel-type model.  Every closed form
is paired with an independent numerical oracle; `tdo verify --suite all`
runs all of them.
"""

from . import bessel, ermakov, minimum, models, quantum, series, verify
from .errors import (BudgetExceeded, ConvergenceWarning, CriterionViolated,
                     DomainError, NonFiniteResult, ParameterError,
                     SingularityApproached, StepSizeUnderflow, TdoError)

__version__ = "0.1.0"

__all__ = [
    "bessel", "ermakov", "minimum", "models", "quantum", "series", "verify",
    "TdoError", "DomainError", "ParameterError", "SingularityApproached",
    "StepSizeUnderflow", "BudgetExceeded", "NonFiniteResult",
    "CriterionViolated", "ConvergenceWarning",
    "__version__",
]
