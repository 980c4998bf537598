"""Exception hierarchy shared across the package.

Two broad families matter to callers: configuration/validation problems
(bad inputs, inconsistent parameters) and numerical failures (integration
breakdown, non-convergence).  The CLI maps them to distinct exit codes.
"""


class HjbPodError(Exception):
    """Base class for all package errors."""


class ValidationError(HjbPodError):
    """Inconsistent or out-of-range user input."""


class NumericalError(HjbPodError):
    """A numerical procedure failed to produce a usable result."""


class IntegrationFailure(NumericalError):
    """Time integration broke down; carries the failure time, and the message
    without it as ``reason`` for a wrapper to prefix."""

    def __init__(self, message: str, time: float, state=None):
        self.reason = message
        self.time = time
        self.state = state
        super().__init__(f"{message} (t={time:.6g})")
