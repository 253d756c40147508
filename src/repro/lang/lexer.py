"""Lexer for the paper's source language (C-like concrete syntax)."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum, auto

from .diagnostics import ParseError, Span


class TokenKind(Enum):
    IDENT = auto()
    INT = auto()
    KEYWORD = auto()
    OP = auto()
    ANNOT = auto()     # @post, @assume
    EOF = auto()


KEYWORDS = {
    "program", "var", "if", "else", "while", "assert", "skip",
    "havoc", "unsigned", "true", "false", "proc", "return", "call",
}

ANNOTATIONS = {"@post", "@assume"}

_OPERATORS = [
    # longest first
    "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "(", ")", "{", "}", ";", ",", "=", "<", ">", "!",
]


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"


def tokenize(source: str) -> list[Token]:
    """Tokenize a program, handling // and /* */ comments."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)

    def span(start: int, end: int) -> Span:
        return Span(start, end, line, start - line_start + 1)

    while pos < n:
        ch = source[pos]
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if source.startswith("//", pos):
            while pos < n and source[pos] != "\n":
                pos += 1
            continue
        if source.startswith("/*", pos):
            close = source.find("*/", pos + 2)
            if close == -1:
                raise ParseError("unterminated comment",
                                 span(pos, pos + 2), source)
            line += source.count("\n", pos, close)
            newline = source.rfind("\n", pos, close)
            if newline != -1:
                line_start = newline + 1
            pos = close + 2
            continue
        if ch.isdigit():
            start = pos
            while pos < n and source[pos].isdigit():
                pos += 1
            tokens.append(Token(TokenKind.INT, source[start:pos],
                                span(start, pos)))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (source[pos].isalnum() or source[pos] in "_$"):
                pos += 1
            # interned: the AST keeps one string per distinct name
            text = sys.intern(source[start:pos])
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, span(start, pos)))
            continue
        if ch == "@":
            start = pos
            pos += 1
            while pos < n and source[pos].isalpha():
                pos += 1
            text = source[start:pos]
            if text not in ANNOTATIONS:
                raise ParseError(f"unknown annotation {text!r}",
                                 span(start, pos), source)
            tokens.append(Token(TokenKind.ANNOT, text, span(start, pos)))
            continue
        for op in _OPERATORS:
            if source.startswith(op, pos):
                tokens.append(Token(TokenKind.OP, op,
                                    span(pos, pos + len(op))))
                pos += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}",
                             span(pos, pos + 1), source)

    tokens.append(Token(TokenKind.EOF, "", span(n, n)))
    return tokens
