"""Serialization of formulas back to concrete syntax.

``to_source(phi)`` emits text that :func:`repro.logic.parse_formula`
parses back to an equal formula (round-tripping is property-tested).
Tests and ``examples/abduction_playground.py`` use it; the analysis
itself prints formulas with ``str``.
"""

from __future__ import annotations

from .formulas import (
    Atom,
    Connective,
    Dvd,
    Formula,
    Not,
    Quantifier,
    Rel,
)
from .terms import LinTerm

#: a connective's tag -> its operator in the concrete syntax (a
#: quantifier's tag is its keyword there)
_OPERATORS = {"and": " && ", "or": " || "}


def term_to_source(term: LinTerm) -> str:
    """Emit a linear term in parseable syntax."""
    if term.is_constant:
        return str(term.const)
    parts: list[str] = []
    for v, c in term.coeffs:
        if not parts:
            if c == 1:
                parts.append(v.name)
            elif c == -1:
                parts.append(f"-{v.name}")
            else:
                parts.append(f"{c}*{v.name}" if c > 0 else f"-{-c}*{v.name}")
        else:
            sign = "+" if c > 0 else "-"
            magnitude = abs(c)
            product = v.name if magnitude == 1 else f"{magnitude}*{v.name}"
            parts.append(f" {sign} {product}")
    if term.const > 0:
        parts.append(f" + {term.const}")
    elif term.const < 0:
        parts.append(f" - {-term.const}")
    return "".join(parts)


def to_source(phi: Formula) -> str:
    """Emit a formula in the syntax :func:`parse_formula` accepts."""
    if phi.is_true:
        return "true"
    if phi.is_false:
        return "false"
    if isinstance(phi, Atom):
        op = {Rel.LE: "<=", Rel.EQ: "==", Rel.NE: "!="}[phi.rel]
        return f"{term_to_source(phi.term)} {op} 0"
    if isinstance(phi, Dvd):
        inner = f"{phi.divisor} dvd {term_to_source(phi.term)}"
        if phi.negated_flag:
            return f"!({inner})"
        return inner
    if isinstance(phi, Not):
        return f"!({to_source(phi.arg)})"
    if isinstance(phi, Connective):
        return _OPERATORS[phi.tag].join(_wrap(a) for a in phi.args)
    if isinstance(phi, Quantifier):
        names = ", ".join(v.name for v in phi.variables)
        return f"{phi.tag} {names}. {to_source(phi.body)}"
    raise TypeError(f"unexpected formula node {phi!r}")


def _wrap(phi: Formula) -> str:
    text = to_source(phi)
    if isinstance(phi, (Connective, Quantifier)):
        return f"({text})"
    return text
