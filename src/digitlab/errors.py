"""Exception classes shared by all digitlab modules: one per exit code, plus
the two a caller needs by name.  Each carries the exit code the command line
reports for it: 2 for a bad argument (the default), 3 for empty input, 4 for
a numerical failure."""


class DigitLabError(Exception):
    """Base class for all digitlab errors."""
    exit_code = 2


class BadParamsError(DigitLabError, ValueError):
    """A bad argument: a parameter, digit, base, interval, range, family,
    preset, arity or form the operation does not accept."""


class TooLargeError(DigitLabError, ValueError):
    """A size, count or depth exceeds its cap."""


class ChainSyntaxError(DigitLabError, ValueError):
    """Chain-spec text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyInputError(DigitLabError, ValueError):
    """Statistic requested on an empty value set."""
    exit_code = 3


class NumericalFailureError(DigitLabError, RuntimeError):
    """Quadrature missed its accuracy or a resampling policy ran out of
    attempts with on_exhaustion='error'."""
    exit_code = 4
