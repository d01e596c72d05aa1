"""Exception hierarchy shared by all gwvir modules.

The class decides the CLI's exit code: a ``UsageError`` is input refused
before any engine work (exit 2); every other ``GWError`` is an error of the
engine's work (exit 3, with a report that names the class).
"""


class GWError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(GWError):
    """Input refused before any engine work; the CLI exits 2."""


class ParseError(UsageError):
    """Malformed input text, or a preset, identity tag or field name that does not exist."""


class ValidationError(UsageError):
    """A target-space invariant is violated; message names the invariant."""


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


class UnsupportedIndex(GWError):
    """Virasoro index n < -1 (lowering operators are out of scope)."""
