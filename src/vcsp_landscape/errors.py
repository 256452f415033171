"""Exception types shared across the package."""


class VcspError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateScopeError(VcspError):
    """Two constraints were given for the same scope."""


class ZeroWeightError(VcspError):
    """A constraint weight of 0 was supplied (zero coefficients are absent)."""


class SelfLoopError(VcspError):
    """A binary constraint pairs a variable with itself."""


class IndexOutOfRangeError(VcspError):
    """A variable index is outside the instance's variable range."""


class LengthMismatchError(VcspError):
    """An assignment's length does not match the instance's variable count."""


class BitValueError(VcspError, ValueError):
    """An assignment entry is not an integer equal to 0 or 1."""


class MalformedTableError(VcspError):
    """A constraint value table is incomplete or otherwise malformed."""


class ParseError(VcspError):
    """A text input (instance file, assignment string, bag file) is invalid."""


class RangeError(VcspError):
    """A generator parameter is outside its admissible range."""


class SelfValidationError(VcspError):
    """A freshly generated instance failed its own weight-schedule checks."""


class TooLargeError(VcspError):
    """An exhaustive computation was requested above its size cap."""


class UnreachableError(VcspError):
    """The requested target assignment is not reachable in the ascent graph."""


class TieEncounteredError(VcspError):
    """Two or more moves shared the maximal gain under tie policy 'error'."""


class EmptyTrialError(VcspError):
    """A trial batch of size zero was requested."""


class ZeroGradientError(VcspError):
    """A variable's preferred value is undefined (gradient 0 at fixing time)."""


class CyclicOrientationError(VcspError):
    """Sign-dependence arcs formed a directed cycle; this indicates a bug,
    since one-directional sign-dependence cannot produce cycles."""


# The errors below are ValueErrors too, so callers that catch ValueError
# catch them as well.

class InvalidArgumentError(VcspError, ValueError):
    """An argument is outside what the function accepts: an unknown tie
    policy or method, a scan order that is not a permutation, a variable
    paired with itself, an empty bag list."""


class NotOrientedError(VcspError, ValueError):
    """An operation that needs an oriented instance was given one that is not."""


class NoRecordedStepsError(VcspError, ValueError):
    """A trace run without recorded steps was asked for its steps."""


class ReplayMismatchError(VcspError, ValueError):
    """Replaying a trace computed a value other than the one it recorded."""
