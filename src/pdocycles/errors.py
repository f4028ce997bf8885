"""Exception types shared across the package."""


class PdoCyclesError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(PdoCyclesError):
    """Operands built over fibers of different dimension."""


class NotTraceComputable(PdoCyclesError):
    """The main diagonal has a non-vanishing scalar-trace tail, so the
    mode sum does not terminate."""


class BlockNotTraceComputable(PdoCyclesError):
    """An off-diagonal block product required by the Schwinger cocycle
    failed the trace precondition."""


class NotCommuting(PdoCyclesError):
    """A family passed as commutative contains a non-commuting pair."""


class DepthInsufficient(PdoCyclesError):
    """A symbol was truncated above the homogeneity degree the requested
    computation needs."""


class UnknownBuiltin(PdoCyclesError):
    """Unrecognised built-in operator or symbol name."""


class InternalMismatch(PdoCyclesError):
    """Two supposedly equivalent computation routes disagreed.  Always a
    bug, never expected input behaviour."""


class BudgetExceeded(PdoCyclesError):
    """An input whose exact evaluation would pass a documented size budget;
    refused before any of the work is done."""


class OperatorParseError(PdoCyclesError):
    """Syntax error in an operator/symbol expression or literal document."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ReproAssertionFailed(PdoCyclesError):
    """A replication target did not reproduce the expected value."""
