"""Exception hierarchy.

Everything raised on purpose by this package derives from CausaboundError,
so callers can catch one type.  The split below mirrors the exit codes of
the command line tool: format problems are input errors, the Undefined*
family marks quantities that do not exist for the given distribution.
"""

from __future__ import annotations


class CausaboundError(Exception):
    """Base class for all errors raised by causabound."""


class ScenarioFormatError(CausaboundError, ValueError):
    """A scenario document or counts table is malformed (shape, keys, types)."""


class InapplicableModeError(CausaboundError, ValueError):
    """The analysis mode drops a variable the structure does not have."""


class UndefinedConditionalError(CausaboundError, ArithmeticError):
    """A required conditional probability has a zero-probability condition."""


class UndefinedPcError(UndefinedConditionalError):
    """P(R=1 | E=1) is zero or subnormal, so the probability of causation is undefined."""


class EmptyConditioningCellError(UndefinedConditionalError):
    """A conditional estimate would be 0/0 because its conditioning cell is empty."""
