"""Exception hierarchy shared by all digitlab modules.  Each class carries the
exit code the command line reports for it: 2 for a bad argument (the default),
3 for empty input, 4 for a numerical failure."""


class DigitLabError(Exception):
    """Base class for all digitlab errors."""
    exit_code = 2


class ZeroInputError(DigitLabError, ValueError):
    """A digit/mantissa operation received 0 (or a non-finite number)."""


class BadBaseError(DigitLabError, ValueError):
    """Base must be an integer >= 2."""


class BadDigitError(DigitLabError, ValueError):
    """Digit or digit pattern out of range for the requested base/order."""


class ZeroPrefixProbabilityError(DigitLabError, ZeroDivisionError):
    """Conditional digit law asked for a prefix with zero probability."""


class BadParamsError(DigitLabError, ValueError):
    """Distribution parameters violate the family's invariants."""


class BadIntervalError(DigitLabError, ValueError):
    """Averaging-scheme interval bounds are inconsistent."""


class DepthUnsupportedError(DigitLabError, ValueError):
    """Iterated averaging schemes only support depth 2 and 3."""


class TooLargeError(DigitLabError, ValueError):
    """A size, count or depth exceeds its cap."""


class BadRangeError(DigitLabError, ValueError):
    """Analytic density range is invalid."""


class QuadratureFailureError(DigitLabError, RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""
    exit_code = 4


class UnsupportedFamilyError(DigitLabError, ValueError):
    """The operation is not defined for this distribution family."""


class UnsupportedFormError(DigitLabError, ValueError):
    """The family has no registered power-of-ten parameter scaling form."""


class ChainSyntaxError(DigitLabError, ValueError):
    """Chain-spec text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownFamilyError(DigitLabError, ValueError):
    """Chain-spec names a distribution family that does not exist."""


class ArityMismatchError(DigitLabError, ValueError):
    """Chain-spec node has the wrong number of arguments for its family."""


class UnknownPresetError(DigitLabError, ValueError):
    """No chain preset registered under that name."""


class PolicyExhaustedError(DigitLabError, RuntimeError):
    """Resampling policy ran out of attempts with on_exhaustion=Error."""
    exit_code = 4


class EmptyInputError(DigitLabError, ValueError):
    """Statistic requested on an empty value set."""
    exit_code = 3
