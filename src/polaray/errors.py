"""Exception hierarchy shared across the package.

Two families matter for the CLI exit-code contract: bad input (exit 1)
versus a numerical failure during an otherwise valid computation
(exit 2). Concrete exceptions live next to the code that raises them
and inherit from one of the two bases below.
"""


class PolarayError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(PolarayError):
    """Malformed input or a precondition violation."""


class NumericalFailure(PolarayError):
    """A computation that started from valid input could not complete."""


class DimensionMismatch(InvalidInput):
    """Matrix dimensions incompatible for the requested operation."""


class ParseError(InvalidInput):
    """A file emitted by this tool could not be read back."""
