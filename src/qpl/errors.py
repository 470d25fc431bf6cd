"""Exception taxonomy shared by all qpl modules.

Every error raised intentionally by the library derives from QplError so
that callers (and the CLI) can distinguish computation failures from bugs.
"""


class QplError(Exception):
    """Base class for all qpl errors."""


class PrecisionExhausted(QplError):
    """A result would retain fewer than one certified significant digit."""


class DivisionByZero(QplError):
    """Divisor is an exact zero or indistinguishable from zero at its precision."""


class NotAUnit(QplError):
    """Argument is divisible by p where a p-adic unit is required."""


class DomainError(QplError):
    """Argument lies outside the convergence or definition domain."""


class UnsupportedOrder(QplError):
    """Character values would leave Z_p; extension fields are out of scope."""


class PoleError(QplError):
    """Evaluation requested at (or indistinguishably near) a pole."""


class DivergenceDetected(QplError):
    """Series term valuations failed to grow; the sum does not converge."""


class InconclusivePrecision(QplError):
    """Working precision cannot certify the requested valuation bound."""


class PreconditionViolated(QplError):
    """A stated hypothesis does not hold for the supplied parameters."""


class NormalizationUnresolved(QplError):
    """The convention certificate does not cover the requested order: the
    order r exceeds its r_max."""


class TailTooLarge(QplError):
    """Oracle truncation tail bound exceeds the requested tolerance."""


class NoConsistentNormalization(QplError):
    """No candidate convention reproduces the target identity within tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


class BudgetExceeded(QplError):
    """A nested sum exceeds the configured term budget."""
