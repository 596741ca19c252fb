"""Exception hierarchy for the solver stack."""


class UavMecError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleScenario(UavMecError):
    """A target cannot be monitored by any S-UAV at its initial position."""


class InvalidDecision(UavMecError):
    """An offloading decision is internally inconsistent."""


class InfeasibleSubproblem(UavMecError):
    """A subproblem has no feasible point under the current constraints."""


class NumericalFailure(UavMecError):
    """An iterative numerical routine failed to converge."""


class ParseError(UavMecError):
    """A config or scenario document could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(UavMecError):
    """A parsed value violates its declared range."""
