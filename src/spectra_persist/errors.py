"""Shared exception types."""
from __future__ import annotations


class UsageError(ValueError):
    """An operation was invoked outside its contract (caller bug)."""


class ParseError(ValueError):
    """Malformed input text; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ClosureError(ValueError):
    """A simplicial complex is missing a face of one of its simplices."""


class InvalidComplexError(UsageError):
    """A filtered chain complex failed validation.

    ``violations`` keeps every violation; the message names the first
    three and counts the rest, so it stays one short line.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:3])
        more = len(self.violations) - 3
        if more > 0:
            lines += f"; and {more} more"
        super().__init__(f"invalid complex: {lines}")


class PageTableError(ValueError):
    """Base for errors raised while recovering a barcode from a page table."""


class InconsistentTableError(PageTableError):
    """The page dimensions admit no nonnegative barcode solution."""


class InsufficientRMaxError(PageTableError):
    """The table was not computed deep enough to see every bar die."""
