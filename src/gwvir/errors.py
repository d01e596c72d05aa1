"""Exception hierarchy shared by all gwvir modules."""


class GWError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GWError):
    """Malformed input text (rationals, target files, CLI keys)."""


class ValidationError(GWError):
    """A target-space invariant is violated; message names the invariant."""


class UnknownPreset(GWError):
    pass


class IndexOutOfRange(GWError):
    pass


class PolicyMismatch(GWError):
    """Two series with different truncation policies were combined."""


class NotApplicable(GWError):
    """A reduction rule's precondition does not hold for the given key."""


class TargetUnsupported(GWError):
    """The reduction reached a primary invariant that no seed or rule supplies."""


class CacheMismatch(GWError):
    """Cache fingerprint does not match the active target."""


class PolicyTooTight(GWError):
    """The truncation policy cannot support the requested computation."""


class UnknownIdentity(GWError):
    pass


class UnsupportedIndex(GWError):
    """Virasoro index n < -1 (lowering operators are out of scope)."""
