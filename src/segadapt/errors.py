"""Shared exception types.

The command line exits 1 on ValidationError/FormatError/DimensionError/ContractError
(a bad path is a ValidationError naming it), 2 on IntegrityError, 64 on bad
arguments and 0 on success; anything else is a bug.
"""


class DimensionError(ValueError):
    """Operand shapes are incompatible with an operation's contract."""


class ContractError(RuntimeError):
    """An API precondition was violated by the caller."""


class ValidationError(ValueError):
    """User-supplied configuration or input is invalid."""


class FormatError(ValueError):
    """An on-disk artifact is malformed; the message carries a byte offset."""


class IntegrityError(RuntimeError):
    """Stored or restored results are internally inconsistent."""
