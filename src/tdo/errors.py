"""Exception and warning types shared across the package."""


class TdoError(Exception):
    """Base class for all package errors."""


class DomainError(TdoError):
    """Time argument outside a model's valid domain."""


class ParameterError(TdoError):
    """Parameter value outside the range an operation supports."""


class SingularityApproached(TdoError):
    """sigma fell below the collapse floor during integration."""


class StepSizeUnderflow(TdoError):
    """The adaptive step fell below the resolution of the time axis."""


class BudgetExceeded(TdoError):
    """An adaptive method used up its budget: the stepper its step attempts
    before t1, or the minimal-branch phase rule its panels on an interval."""


class NonFiniteResult(TdoError):
    """An integrated trajectory left the floating-point range."""


class CriterionViolated(TdoError):
    """Model does not keep m(t)*omega(t) constant."""


class ConvergenceWarning(UserWarning):
    """Requested window extends past the trusted range of a truncated series."""
