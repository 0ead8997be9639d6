"""Delimited text format for square max-plus matrices.

A document is n nonempty lines of n whitespace-separated tokens.  Tokens
are ``-inf`` (also ``-Inf`` or ``-INF``), integers, fractions ``p/q``, or
decimals; decimals convert exactly (``2.5`` reads as 5/2).  Errors carry
1-based line and column positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semiring import (
    MpMatrix,
    MpVector,
    format_scalar,
    parse_scalar,
)


class MatrixParseError(ValueError):
    """Malformed matrix or vector text, with a 1-based location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class MatrixDocument:
    """A parsed square matrix."""

    matrix: MpMatrix


def parse_matrix(text: str) -> MatrixDocument:
    """Parse delimited text into a square matrix document."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixParseError("empty input, expected a square matrix")
    for li, line in enumerate(lines, start=1):
        if not line.strip():
            where = "before the matrix" if li == 1 else "inside matrix"
            raise MatrixParseError(f"blank line {where}", line=li)
    n = len(lines)
    rows = []
    for li, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixParseError(
                f"expected {n} entries to match {n} rows, got {len(tokens)}",
                line=li,
            )
        row = []
        for ci, tok in enumerate(tokens, start=1):
            try:
                row.append(parse_scalar(tok))
            except ValueError as exc:
                raise MatrixParseError(str(exc), line=li, column=ci) from None
        rows.append(row)
    return MatrixDocument(MpMatrix.from_rows(rows))


def parse_vector(text: str, n: int) -> MpVector:
    """Parse n whitespace-separated scalar tokens."""
    tokens = text.split()
    if len(tokens) != n:
        raise MatrixParseError(
            f"expected {n} vector entries, got {len(tokens)}"
        )
    entries = []
    for ci, tok in enumerate(tokens, start=1):
        try:
            entries.append(parse_scalar(tok))
        except ValueError as exc:
            raise MatrixParseError(str(exc), line=1, column=ci) from None
    return MpVector(entries)


def render_matrix(a: MpMatrix) -> str:
    """Inverse of parse_matrix for the matrix part: one line per row."""
    return "\n".join(
        " ".join(format_scalar(e) for e in row) for row in a
    ) + "\n"
