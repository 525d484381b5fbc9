"""Exception hierarchy shared by all modules.

The CLI maps these onto distinct exit codes, so keep the split stable:
precondition violations (bad inputs, contract breaches) vs. the flow
denominator guard vs. numerical tolerance failures.
"""

from __future__ import annotations


class BorelConvError(Exception):
    """Base class for all package errors."""


class PreconditionError(BorelConvError):
    """An operation was called outside its contract (bad centre, level
    beyond the horizon, path not allowed, ...)."""


class ChiGuardError(BorelConvError):
    """The flow denominator came too close to zero: the target path passes
    too close to a point of the plain sum set at the working level.  The
    caller should reroute the path or lower the level.

    `t` is the flow time at which the guard tripped, `value` the smallest
    denominator met there and `bound` the guard it fell to."""

    def __init__(self, message: str, t: float, value: float, bound: float):
        super().__init__(message)
        self.t = t
        self.value = value
        self.bound = bound


class ToleranceError(BorelConvError):
    """A numerical tolerance could not be met (length identity violated,
    series evaluated outside its assured disc or with too large a tail, ...).

    Where a check names them, `stage` is the check that refused, `value`
    the quantity it measured and `bound` the limit that quantity broke;
    each is None otherwise."""

    def __init__(self, message: str, *, stage: str | None = None,
                 value: float | None = None, bound: float | None = None):
        super().__init__(message)
        self.stage = stage
        self.value = value
        self.bound = bound
