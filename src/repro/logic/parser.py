"""A small concrete syntax for formulas, used by tests and examples.

Grammar (precedence low to high)::

    formula  := quant | iff
    quant    := ("forall" | "exists") ident ("," ident)* "." formula
    iff      := impl ("<->" impl)*
    impl     := or ("->" or)*        (right associative)
    or       := and ("||" and)*
    and      := unary ("&&" unary)*
    unary    := "!" unary | "(" formula ")" | cmp | "true" | "false"
               | int "dvd" term
    cmp      := term (("<=" | "<" | ">=" | ">" | "==" | "=" | "!=") term)+
    term     := product (("+" | "-") product)*
    product  := int "*" atomT | atomT | "-" product | int
    atomT    := ident | "(" term ")"

Chained comparisons (``0 <= x < n``) expand to conjunctions.  Variable
kinds default to PROGRAM; a ``kinds`` mapping can override (the analysis
itself builds formulas programmatically and never round-trips through this
parser).
"""

from __future__ import annotations

import re
from typing import Mapping

from .formulas import (
    FALSE,
    TRUE,
    Formula,
    conj,
    disj,
    dvd,
    eq,
    exists,
    forall,
    ge,
    gt,
    implies,
    le,
    lt,
    ne,
    neg,
)
from .terms import LinTerm, Var, VarKind

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_$][A-Za-z_0-9$@]*)"
    r"|(?P<op><->|->|<=|>=|==|!=|\|\||&&|[-+*().,<>=!|]))"
)

_KEYWORDS = {"true", "false", "forall", "exists", "dvd"}


class FormulaParseError(ValueError):
    """Raised on malformed formula text, with position information."""

    def __init__(self, message: str, text: str, pos: int):
        snippet = text[max(0, pos - 20):pos + 20]
        super().__init__(f"{message} at position {pos}: ...{snippet!r}...")
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None or match.end() == pos:
                if text[pos:].strip():
                    raise FormulaParseError("unexpected character", text, pos)
                break
            if match.group("int") is not None:
                self.tokens.append(("int", match.group("int"), match.start()))
            elif match.group("ident") is not None:
                word = match.group("ident")
                kind = "kw" if word in _KEYWORDS else "ident"
                self.tokens.append((kind, word, match.start()))
            else:
                self.tokens.append(("op", match.group("op"), match.start()))
            pos = match.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("eof", "", len(self.text))

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        self.index += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        if token[0] == kind and (value is None or token[1] == value):
            self.index += 1
            return True
        return False

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind or (value is not None and token[1] != value):
            want = value if value is not None else kind
            raise FormulaParseError(
                f"expected {want!r}, found {token[1]!r}", self.text, token[2]
            )
        return self.next()


class _Parser:
    def __init__(self, text: str, kinds: Mapping[str, VarKind]):
        self.tokens = _Tokens(text)
        self.kinds = kinds
        self.vars: dict[str, Var] = {}

    def variable(self, name: str) -> Var:
        if name not in self.vars:
            kind = self.kinds.get(name, VarKind.PROGRAM)
            self.vars[name] = Var(name, kind)
        return self.vars[name]

    # formula levels ------------------------------------------------------
    def formula(self) -> Formula:
        token = self.tokens.peek()
        if token[0] == "kw" and token[1] in ("forall", "exists"):
            self.tokens.next()
            names = [self.tokens.expect("ident")[1]]
            while self.tokens.accept("op", ","):
                names.append(self.tokens.expect("ident")[1])
            self.tokens.expect("op", ".")
            body = self.formula()
            binder = forall if token[1] == "forall" else exists
            return binder([self.variable(n) for n in names], body)
        return self.iff()

    def iff(self) -> Formula:
        left = self.impl()
        while self.tokens.accept("op", "<->"):
            right = self.impl()
            left = left.iff(right)
        return left

    def impl(self) -> Formula:
        left = self.disjunction()
        if self.tokens.accept("op", "->"):
            right = self.impl()
            return implies(left, right)
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.tokens.accept("op", "||"):
            parts.append(self.conjunction())
        return disj(*parts)

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.tokens.accept("op", "&&"):
            parts.append(self.unary())
        return conj(*parts)

    def unary(self) -> Formula:
        token = self.tokens.peek()
        if token == ("op", "!", token[2]):
            self.tokens.next()
            return neg(self.unary())
        if token[0] == "kw" and token[1] == "true":
            self.tokens.next()
            return TRUE
        if token[0] == "kw" and token[1] == "false":
            self.tokens.next()
            return FALSE
        if token[0] == "op" and token[1] == "(":
            # could be a parenthesized formula or a parenthesized term;
            # try formula first by lookahead on what follows the match.
            save = self.tokens.index
            try:
                self.tokens.next()
                inner = self.formula()
                self.tokens.expect("op", ")")
                # if a comparison operator follows, this was a term paren
                follow = self.tokens.peek()
                if follow[0] == "op" and follow[1] in _CMP_OPS:
                    raise FormulaParseError("term context", self.tokens.text,
                                            follow[2])
                return inner
            except FormulaParseError:
                self.tokens.index = save
                return self.comparison()
        if token[0] == "int":
            # either "d dvd term" or the start of a comparison
            save = self.tokens.index
            self.tokens.next()
            if self.tokens.accept("kw", "dvd"):
                term = self.term()
                return dvd(int(token[1]), term)
            self.tokens.index = save
            return self.comparison()
        return self.comparison()

    # comparisons and terms -------------------------------------------------
    def comparison(self) -> Formula:
        left = self.term()
        token = self.tokens.peek()
        if not (token[0] == "op" and token[1] in _CMP_OPS):
            raise FormulaParseError(
                "expected comparison operator", self.tokens.text, token[2]
            )
        parts: list[Formula] = []
        while True:
            token = self.tokens.peek()
            if not (token[0] == "op" and token[1] in _CMP_OPS):
                break
            self.tokens.next()
            right = self.term()
            parts.append(_CMP_OPS[token[1]](left, right))
            left = right
        return conj(*parts)

    def term(self) -> LinTerm:
        left = self.product()
        while True:
            if self.tokens.accept("op", "+"):
                left = left + self.product()
            elif self.tokens.accept("op", "-"):
                left = left - self.product()
            else:
                return left

    def product(self) -> LinTerm:
        token = self.tokens.peek()
        if token[0] == "op" and token[1] == "-":
            self.tokens.next()
            return -self.product()
        if token[0] == "int":
            self.tokens.next()
            value = int(token[1])
            if self.tokens.accept("op", "*"):
                return self.term_atom().scale(value)
            return LinTerm.constant(value)
        factor = self.term_atom()
        if self.tokens.accept("op", "*"):
            scale_token = self.tokens.expect("int")
            return factor.scale(int(scale_token[1]))
        return factor

    def term_atom(self) -> LinTerm:
        token = self.tokens.peek()
        if token[0] == "ident":
            self.tokens.next()
            return LinTerm.var(self.variable(token[1]))
        if token[0] == "op" and token[1] == "(":
            self.tokens.next()
            inner = self.term()
            self.tokens.expect("op", ")")
            return inner
        if token[0] == "int":
            self.tokens.next()
            return LinTerm.constant(int(token[1]))
        raise FormulaParseError("expected term", self.tokens.text, token[2])


_CMP_OPS = {
    "<=": le,
    "<": lt,
    ">=": ge,
    ">": gt,
    "==": eq,
    "=": eq,
    "!=": ne,
}


def parse_formula(text: str,
                  kinds: Mapping[str, VarKind] | None = None) -> Formula:
    """Parse ``text`` into a formula.

    ``kinds`` maps variable names to their :class:`VarKind`; unlisted
    variables default to ``PROGRAM``.
    """
    parser = _Parser(text, kinds or {})
    result = parser.formula()
    trailing = parser.tokens.peek()
    if trailing[0] != "eof":
        raise FormulaParseError(
            f"trailing input {trailing[1]!r}", text, trailing[2]
        )
    return result


def parse_term(text: str,
               kinds: Mapping[str, VarKind] | None = None) -> LinTerm:
    """Parse a bare linear term."""
    parser = _Parser(text, kinds or {})
    result = parser.term()
    trailing = parser.tokens.peek()
    if trailing[0] != "eof":
        raise FormulaParseError(
            f"trailing input {trailing[1]!r}", text, trailing[2]
        )
    return result
