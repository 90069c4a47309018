"""Exception hierarchy shared across the package."""


class BgmuError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(BgmuError, ValueError):
    """Operands live in groups of different rank or block structure."""


class ParseError(BgmuError, ValueError):
    """Malformed element or problem literal."""


class GuardExceeded(BgmuError, RuntimeError):
    """A desk-scale enumeration guard, the walk guard of a constructive
    solve, or the size guard of a ``bgmu verify`` sweep, was hit.

    The BGMU_GUARD environment variable replaces the three rank limits
    (enumeration 8, admissible set 5, brute force 6) by its one value:
    a larger value admits a larger computation, a smaller one lowers
    all three. It moves neither the walk guard's budget
    (``reduction.WALK_BUDGET``) nor the sweep's (``cli.VERIFY_BUDGET``),
    whose costs grow with the entries.
    """


class UnsupportedTwist(BgmuError, ValueError):
    """The constructive solver reached a configuration it does not
    handle (a diagram flip surviving to a rank >= 2 superbasic base)."""


class InternalCheckFailed(BgmuError, AssertionError):
    """A self-verification that is guaranteed by theory failed.

    This always indicates a bug, never bad user input; the message
    carries enough state to replay the failure. ``problem`` is the
    ``reduction.Problem`` of a solve that let the failure through, or
    None where no solve did.
    """

    problem = None
