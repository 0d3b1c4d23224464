"""Exception types shared across the package; each names its CLI exit code.

exit_code 1: a configuration that cannot run; 2 (the base's): a failed check.
"""


class HimcfError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 2


class InvalidConfig(HimcfError, ValueError):
    exit_code = 1


class InvalidInitialRadius(HimcfError):
    exit_code = 1


class InvalidForcing(HimcfError):
    exit_code = 1


class NotConvex(HimcfError):
    exit_code = 1


class ConvexityLost(HimcfError):
    """Strict convexity S_thth + S > eps failed; carries time/angle when known."""

    exit_code = 1

    def __init__(self, message, t=None, theta=None):
        super().__init__(message)
        self.t = t
        self.theta = theta


class OriginNotInterior(HimcfError):
    exit_code = 1


class DegenerateEdge(HimcfError):
    pass


class CflViolation(HimcfError):
    exit_code = 1


class BracketViolation(HimcfError):
    pass


class PreconditionFailed(HimcfError):
    exit_code = 1


class InsufficientData(HimcfError):
    exit_code = 1


class OutOfDomain(HimcfError):
    exit_code = 1


class NonFinite(HimcfError, ValueError):
    """Samples or a state went inf/NaN, as when a run overflows double precision."""

    exit_code = 1
