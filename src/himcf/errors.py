"""Exception types shared across the package."""


class HimcfError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidConfig(HimcfError):
    pass


class InvalidInitialRadius(HimcfError):
    pass


class InvalidForcing(HimcfError):
    pass


class NotConvex(HimcfError):
    pass


class ConvexityLost(HimcfError):
    """Strict convexity S_thth + S > eps failed; carries time/angle when known."""

    def __init__(self, message, t=None, theta=None):
        super().__init__(message)
        self.t = t
        self.theta = theta


class OriginNotInterior(HimcfError):
    pass


class DegenerateEdge(HimcfError):
    pass


class CflViolation(HimcfError):
    pass


class BracketViolation(HimcfError):
    pass


class PreconditionFailed(HimcfError):
    pass


class InsufficientData(HimcfError):
    pass


class OutOfDomain(HimcfError):
    pass


class NonFinite(HimcfError, ValueError):
    """Samples or a state went inf/NaN, as when a run overflows double precision."""
