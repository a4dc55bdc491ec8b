"""Exception types shared across the package."""


class SuperconError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitDenominator(SuperconError, ValueError):
    """A rational with p in its denominator was used where a p-adic integer is required."""


class PrecisionOutOfRange(SuperconError, ValueError):
    """Requested precision exponent outside the supported range 1..6."""


class PrecisionExhausted(SuperconError, ArithmeticError):
    """A capped-precision result has no digit justified by its inputs."""


class PoleInRange(SuperconError, ArithmeticError):
    """A lower-parameter Pochhammer vanished while the series was still live."""


class NonInvertible(SuperconError, ZeroDivisionError):
    """Inversion requested for a zero CycloElem, the one element with zero norm."""


class AlphaOutOfRange(SuperconError, ValueError):
    """The shift parameter's least residue falls outside [0, floor(p/4)]."""


class LimitExceeded(SuperconError, ValueError):
    """A series coefficient beyond the cached expansion limit was requested."""


class OracleMismatch(SuperconError, AssertionError):
    """The fast modular evaluator disagreed with the exact oracle; internal bug, never data."""
