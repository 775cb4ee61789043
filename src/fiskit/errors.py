"""Exception types shared across the package.

A value that cannot be built, be it a letter, a grid, an instance, a
system, a tile set or a bound, raises ``ValueError``.  The types here
are for the other two cases: a text document that does not follow its
format, and a well-formed object asked something it cannot answer.
"""


class FiskitError(Exception):
    """Base class for all errors raised by fiskit."""


class FormatError(FiskitError):
    """A text document does not follow one of the on-disk formats."""


# interactive systems

class UnknownLetter(FiskitError):
    """A grid letter that the system's alphabet does not contain."""


class UnknownTransition(FiskitError):
    """A transition that the system does not declare."""


# correspondence instances and compilers

class InvalidSolution(FiskitError):
    """An index sequence that is not a solution of the instance."""


class IndexOutOfRange(FiskitError):
    """A word index outside 1..n for an n-pair instance."""


# bounded analyses

class NotReductionScenario(FiskitError):
    """A scenario that does not replay on the compiled recognizer."""
