"""Exception types shared across the package.

The CLI maps these onto process exit codes: DegenerateFitError exits 3,
TruncationError 4 and every other :class:`OpaHbtError` 2.  New failure
modes should reuse an existing class where the meaning fits.
"""


class OpaHbtError(Exception):
    """Base class for all package-specific errors."""


class DomainError(OpaHbtError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class SummationLimitError(OpaHbtError, RuntimeError):
    """A series summation hit its iteration cap before reaching the tail bound."""

    def __init__(self, message, achieved_bound=None):
        super().__init__(message)
        self.achieved_bound = achieved_bound


class TruncationError(OpaHbtError, RuntimeError):
    """A truncated Fock-space computation cannot meet its accuracy bound.

    Carries the achieved tail estimate and, when one can be computed, a
    suggested truncation dimension that would satisfy the bound.
    """

    def __init__(self, message, achieved=None, suggested_dim=None):
        super().__init__(message)
        self.achieved = achieved
        self.suggested_dim = suggested_dim


class DegenerateFitError(OpaHbtError, RuntimeError):
    """The normal equations of a linear fit are singular."""


class UnreachableTargetError(OpaHbtError, ValueError):
    """A requested ratio target lies at or below the large-mean asymptote."""


class FringeCoverageError(DomainError):
    """A baseline scan does not cover enough of a fringe to identify the frequency."""
