"""Exception hierarchy shared by every bredim module.

The command line maps these onto exit codes: ``OutOfRangeError`` exits with
status 3, and every other ``BredimError`` with status 2.  Besides
``InputError`` and its subclasses, that covers ``IncompatibleBoundsError``
and ``DerivationError``, which derive from ``BredimError`` directly, and a
plain ``BredimError`` for an input file that cannot be read.
"""


class BredimError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BredimError):
    """Invalid input data: bad files, shape mismatches, broken preconditions."""


class ParseError(InputError):
    """A text input could not be parsed; carries a 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class DimensionMismatchError(InputError):
    """A vector or matrix has the wrong length for the requested operation."""


class AmbientMismatchError(InputError):
    """Two sublattices live in different ambient groups."""


class ContainmentError(InputError):
    """A claimed inclusion between sublattices does not hold."""


class RankMismatchError(InputError):
    """Two sublattices were expected to share a rank but do not."""


class MaximalityRequiredError(InputError):
    """An operation needs a direct-summand (saturated) sublattice."""


class ChainComplexError(InputError):
    """Chain complex data with mismatched shapes or nonzero double boundary."""


class AcylindricityError(InputError):
    """A graph-of-groups computation needs the acylindricity assertion."""


class OutOfRangeError(BredimError):
    """The requested parameters fall outside the established range of a formula.

    The tool refuses to extrapolate closed-form values beyond the range in
    which they are known to hold.
    """


class IncompatibleBoundsError(BredimError):
    """Two bounds on the same quantity exclude each other.

    Intersecting a lower bound with a smaller upper bound can only come from
    applying a rule to the wrong subject, so this is a hard error rather than
    an empty interval.
    """


class DerivationError(BredimError):
    """A derivation node's stored conclusion does not follow from its premises."""
