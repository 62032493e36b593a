"""Shared exception types, and :func:`shorten` for the input they quote."""
from __future__ import annotations

SHORT = 40  # the longest input text an error message quotes in full


def shorten(text: str) -> str:
    """``text``, or for one over ``SHORT`` characters its first ``SHORT``, then
    ``…`` and its length, so that a message naming an input token, label,
    line or path stays one short line however long the input is.  The
    marker holds a blank, so it cannot pass for the rest of a token the
    readers split on whitespace."""
    if len(text) <= SHORT:
        return text
    return f"{text[:SHORT]}… ({len(text)} characters)"


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
    three and counts the rest, and each names its generators' labels
    through :func:`shorten`, so it stays one short line.
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
