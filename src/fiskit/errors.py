"""Exception types shared across the package."""


class FiskitError(Exception):
    """Base class for all errors raised by fiskit."""


class FormatError(FiskitError):
    """A text document does not follow one of the on-disk formats."""


# grid construction and algebra

class InvalidLetter(FiskitError):
    """A cell token is empty, contains whitespace, or is the border symbol."""


class InvalidGrid(FiskitError):
    """A grid is empty or its rows have unequal lengths."""


class ColumnMismatch(FiskitError):
    """Vertical composition of grids with different column counts."""


class RowMismatch(FiskitError):
    """Horizontal composition of grids with different row counts."""


# interactive systems

class UnknownLetter(FiskitError):
    """A grid letter that the system's alphabet does not contain."""


class UnknownTransition(FiskitError):
    """A transition that the system does not declare."""


# correspondence instances and compilers

class ReservedSymbolCollision(FiskitError):
    """An instance alphabet that contains a reserved marker symbol."""


class InvalidSolution(FiskitError):
    """An index sequence that is not a solution of the instance."""


class IndexOutOfRange(FiskitError):
    """A word index outside 1..n for an n-pair instance."""


# bounded analyses

class NotAReductionFis(FiskitError):
    """The padding law does not hold: the pad transition is not live,
    the final states are not just its north state, its west class is
    not initial or its east class is not final.  The message names the
    condition that failed."""


class NotReductionScenario(FiskitError):
    """A scenario that does not replay on the compiled recognizer."""
