"""Exception hierarchy shared across the package."""


class BgmuError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(BgmuError, ValueError):
    """Operands live in groups of different rank or block structure."""


class ParseError(BgmuError, ValueError):
    """Malformed element or problem literal."""


class GuardExceeded(BgmuError, RuntimeError):
    """A desk-scale enumeration guard was hit.

    The BGMU_GUARD environment variable raises the rank limits if the
    larger computation is really wanted.
    """


class UnsupportedTwist(BgmuError, ValueError):
    """The constructive solver reached a configuration it does not
    handle (a diagram flip surviving to a rank >= 2 superbasic base)."""


class InternalCheckFailed(BgmuError, AssertionError):
    """A self-verification that is guaranteed by theory failed.

    This always indicates a bug, never bad user input; the message
    carries enough state to replay the failure.
    """
