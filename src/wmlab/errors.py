"""Exception taxonomy for wmlab.

All library errors derive from WmlabError so callers can catch broadly;
ValueError/RuntimeError bases are kept so the types behave like their
stdlib counterparts in generic code.
"""

__all__ = [
    "WmlabError",
    "DomainError",
    "ParameterError",
    "CoefficientError",
    "ConstraintError",
    "UnsupportedFormError",
    "AssemblyIntegrityError",
    "ConditioningError",
    "DegenerateTargetError",
    "NumericalIntegrityError",
    "DataError",
]


class WmlabError(Exception):
    """Base class for all wmlab errors."""


class DomainError(WmlabError, ValueError):
    """An argument lies outside its mathematical domain (e.g. s not in [0,1])."""


class ParameterError(WmlabError, ValueError):
    """A parameter violates a precondition (e.g. beta <= 1/4)."""


class CoefficientError(WmlabError, ValueError):
    """A coefficient field violates a sign requirement at a quadrature node."""


class ConstraintError(WmlabError, ValueError):
    """Requested boundary constraints are incompatible with the basis."""


class UnsupportedFormError(WmlabError, ValueError):
    """The requested bilinear form is not available for these coefficients."""


class AssemblyIntegrityError(WmlabError, RuntimeError):
    """An assembled matrix failed a structural requirement (e.g. M not SPD)."""


class ConditioningError(WmlabError, RuntimeError):
    """A linear system was too ill-conditioned to solve reliably."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class DegenerateTargetError(WmlabError, ValueError):
    """The optimal prediction error for a target is zero (target degenerate)."""


class NumericalIntegrityError(WmlabError, RuntimeError):
    """A computed quantity violates a mathematical guarantee beyond tolerance."""


class DataError(WmlabError, ValueError):
    """Supplied data are insufficient or inconsistent for the requested check."""
