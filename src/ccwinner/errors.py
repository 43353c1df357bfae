"""Exception types shared across the package."""


class CCWinnerError(Exception):
    """Base class for errors raised by this package."""


class InvalidK(CCWinnerError, ValueError):
    """Committee size bound is unusable (k < 1)."""


class InvalidN(CCWinnerError, ValueError):
    """Instance size parameter out of range."""


class NotSingleCrossing(CCWinnerError, ValueError):
    """A solver found its input is not single-crossing on the given structure."""


class NotATree(CCWinnerError, ValueError):
    """Parent links and child orders do not describe a rooted tree."""


class InvalidTiling(CCWinnerError, ValueError):
    """Rectangles overlap, leave gaps, or fall outside the grid."""


class IncompleteTilings(CCWinnerError, ValueError):
    """A tiling list is empty or misses a tiling the laminar DP reaches."""


class BudgetExceeded(CCWinnerError, RuntimeError):
    """An enumeration would exceed the configured work budget."""


class RejectionBudgetExceeded(BudgetExceeded):
    """Rejection sampling failed to reach its target within the attempt budget."""


class AlgorithmStructureMismatch(CCWinnerError, ValueError):
    """Requested algorithm cannot run on the instance's structure."""


class ParseError(CCWinnerError, ValueError):
    """Instance or result file is malformed."""


class OutputError(CCWinnerError, OSError):
    """An output file cannot be written."""


class InconsistentTables(CCWinnerError, RuntimeError):
    """A backtracking walk found DP tables that do not reproduce their own values."""
