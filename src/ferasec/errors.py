"""Exception hierarchy shared by all modules.

Input-validation failures map to CLI exit code 2, numeric failures to 3.
"""

from __future__ import annotations

from pathlib import Path


class FerasecError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FerasecError):
    """An argument is outside the operation's valid domain."""


class DimensionError(DomainError):
    """Array shapes or lengths are inconsistent."""


class DegenerateInputError(DomainError):
    """A correlation input has zero variance (e.g. a constant radar frame)."""


class FormatError(FerasecError):
    """A binary or text file does not conform to its declared format."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class GenerationError(DomainError):
    """A synthetic trajectory left the simulated detection range."""


class TrainingError(FerasecError):
    """The training corpus cannot be used to fit a model."""


class NumericError(FerasecError):
    """A computation produced non-finite values."""


def read_utf8(path: str | Path) -> str:
    """Read a UTF-8 text file; undecodable bytes raise :class:`FormatError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})", offset=exc.start) from None
