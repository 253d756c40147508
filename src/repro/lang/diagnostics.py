"""Source positions and compiler-style diagnostics.

Every token and AST node carries a :class:`Span`; parse and analysis
errors render the offending line with a caret marker, the way a
conventional compiler frontend reports problems.  Spans also let the
diagnosis engine phrase queries as "... after the loop at line 5".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open byte range in a source file, with line/column info."""

    start: int
    end: int
    line: int        # 1-based line of `start`
    column: int      # 1-based column of `start`

    @staticmethod
    def point(offset: int, line: int, column: int) -> "Span":
        return Span(offset, offset, line, column)

    def merge(self, other: "Span") -> "Span":
        if other.start < self.start:
            return other.merge(self)
        return Span(self.start, max(self.end, other.end),
                    self.line, self.column)

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


DUMMY_SPAN = Span(0, 0, 1, 1)


class SourceError(Exception):
    """An error anchored to a source location, rendered with context."""

    def __init__(self, message: str, span: Span, source: str | None = None):
        self.message = message
        self.span = span
        self.source = source
        super().__init__(self.render())

    def render(self) -> str:
        header = f"{self.message} ({self.span})"
        if self.source is None:
            return header
        lines = self.source.splitlines()
        if not 1 <= self.span.line <= len(lines):
            return header
        line_text = lines[self.span.line - 1]
        caret_width = max(1, min(self.span.end - self.span.start,
                                 len(line_text) - self.span.column + 1))
        caret = " " * (self.span.column - 1) + "^" * caret_width
        return f"{header}\n  {line_text}\n  {caret}"


class ParseError(SourceError):
    """Raised by the lexer/parser on malformed programs."""


class AnalysisError(SourceError):
    """Raised by static analysis passes on unsupported or ill-formed input."""
