"""Amplitude, phase and uncertainty toolkit for oscillators with
time-dependent mass and frequency.

The package solves the auxiliary equation sigma'' + Omega^2(t) sigma =
K/sigma^3 by closed-form superposition and by direct adaptive integration,
accumulates phases, evaluates variances and transformation coefficients,
implements the constant m*omega minimum-uncertainty criterion, and carries
the odd power-series machinery of the Bessel-type model.  Every closed form
is paired with an independent numerical oracle; `tdo verify --suite all`
runs all of them.
"""

from . import bessel, ermakov, minimum, models, quantum, series, verify
from .errors import (BudgetExceeded, ConstraintViolation, ConvergenceWarning,
                     CriterionViolated, DomainError, NonFiniteResult,
                     NonPositiveAlpha, NonRealSigma, ParameterError,
                     SingularityApproached, StepSizeUnderflow, TdoError,
                     UnitsError, UnknownCase)

__version__ = "0.1.0"

__all__ = [
    "bessel", "ermakov", "minimum", "models", "quantum", "series", "verify",
    "TdoError", "DomainError", "ParameterError", "UnitsError", "UnknownCase",
    "NonRealSigma", "ConstraintViolation", "SingularityApproached",
    "StepSizeUnderflow", "BudgetExceeded", "NonFiniteResult",
    "CriterionViolated", "NonPositiveAlpha", "ConvergenceWarning",
    "__version__",
]
