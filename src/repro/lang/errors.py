"""Error types raised by the frontend.

All frontend errors carry a source location so that messages point at the
offending token rather than at the compiler internals.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, init=False)
class SourceLocation:
    """A (line, column) position in a source buffer.

    Lines and columns are 1-based, matching what editors display.
    ``filename`` defaults to ``"<input>"`` for programs compiled from
    strings, which is the common case in tests and benchmarks.
    """

    line: int
    column: int
    filename: str = "<input>"

    def __init__(self, line: int, column: int, filename: str = "<input>"):
        # The parser builds one per AST node.  Filling ``__dict__`` directly
        # takes half the time of the generated frozen ``__init__`` and its
        # three ``object.__setattr__`` calls; ``__setattr__`` still refuses
        # every later write.
        fields = self.__dict__
        fields["line"] = line
        fields["column"] = column
        fields["filename"] = filename

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


UNKNOWN_LOCATION = SourceLocation(0, 0, "<unknown>")


class FrontendError(Exception):
    """Base class for all errors produced while processing source text."""

    def __init__(self, message: str, location: SourceLocation = UNKNOWN_LOCATION):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class LexError(FrontendError):
    """An unrecognizable character sequence in the input."""


class ParseError(FrontendError):
    """A token sequence that does not match the grammar."""


class SemanticError(FrontendError):
    """A well-formed program that violates typing or usage rules."""


class InterpError(Exception):
    """A runtime error in the golden-model interpreter (e.g. division by
    zero, out-of-bounds array access, or exceeding a step budget)."""
