"""JSON-safe serialization of terms and formulas.

The persistent cache (:mod:`repro.cache`) stores stage artifacts as
plain JSON, and several artifacts carry formulas — abduced proof
obligations, failure witnesses, decomposed query clauses.  ``str(phi)``
is lossy (a variable's *kind* does not survive its name), so this module
defines an explicit object encoding that round-trips exactly:

* variables keep their name, kind and origin;
* reconstruction goes through the normalizing smart constructors, so a
  deserialized formula of an already-normalized input is the *same*
  hash-consed node the producer held (``from_obj(to_obj(phi)) is phi``
  in one process, and structurally equal across processes).

Shared subformulas are serialized once per :func:`to_obj` call (the
encoder memoizes by node identity and emits the full subtree each time
it is referenced — formulas here are small; the DAG sharing that matters
is restored on decode by the interner).
"""

from __future__ import annotations

from typing import Any

from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Connective,
    Dvd,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Quantifier,
    Rel,
    dvd,
    neg,
)
from .formulas import atom as make_atom
from .terms import LinTerm, Var, VarKind

__all__ = ["formula_from_obj", "formula_to_obj", "term_from_obj",
           "term_to_obj", "var_from_obj", "var_to_obj"]


def _var_to_obj(v: Var) -> dict:
    obj: dict[str, Any] = {"n": v.name, "k": v.kind.value}
    if v.origin:
        obj["o"] = list(v.origin)
    return obj


def _var_from_obj(obj: dict) -> Var:
    return Var(obj["n"], VarKind(obj["k"]), tuple(obj.get("o", ())))


#: Public aliases (stage artifacts encode MSA variables directly).
var_to_obj = _var_to_obj
var_from_obj = _var_from_obj

#: serialized op -> shape (an op is its class's ``tag``)
_CONNECTIVES: dict[str, type[Connective]] = {c.tag: c for c in (And, Or)}
_QUANTIFIERS: dict[str, type[Quantifier]] = {
    q.tag: q for q in (Exists, Forall)}


def term_to_obj(t: LinTerm) -> dict:
    """Encode a linear term as a JSON-safe dict."""
    return {
        "const": t.const,
        "coeffs": [[_var_to_obj(v), c] for v, c in t.coeffs],
    }


def term_from_obj(obj: dict) -> LinTerm:
    """Decode :func:`term_to_obj` output (re-interned on construction)."""
    return LinTerm.make(
        [(_var_from_obj(v), c) for v, c in obj["coeffs"]], obj["const"]
    )


def formula_to_obj(phi: Formula) -> dict:
    """Encode a formula as a JSON-safe dict."""
    if phi.is_true:
        return {"op": "true"}
    if phi.is_false:
        return {"op": "false"}
    if isinstance(phi, Atom):
        return {"op": "atom", "rel": phi.rel.value,
                "term": term_to_obj(phi.term)}
    if isinstance(phi, Dvd):
        return {"op": "dvd", "d": phi.divisor, "neg": phi.negated_flag,
                "term": term_to_obj(phi.term)}
    if isinstance(phi, Not):
        return {"op": "not", "arg": formula_to_obj(phi.arg)}
    if isinstance(phi, Connective):
        return {"op": phi.tag,
                "args": [formula_to_obj(a) for a in phi.args]}
    if isinstance(phi, Quantifier):
        return {"op": phi.tag,
                "vars": [_var_to_obj(v) for v in phi.variables],
                "body": formula_to_obj(phi.body)}
    raise TypeError(f"cannot serialize {phi!r}")


def formula_from_obj(obj: dict) -> Formula:
    """Decode :func:`formula_to_obj` output through the smart
    constructors, yielding the interned normalized node."""
    op = obj["op"]
    if op == "true":
        return TRUE
    if op == "false":
        return FALSE
    if op == "atom":
        return make_atom(Rel(obj["rel"]), term_from_obj(obj["term"]))
    if op == "dvd":
        return dvd(obj["d"], term_from_obj(obj["term"]), obj["neg"])
    if op == "not":
        return neg(formula_from_obj(obj["arg"]))
    if op in _CONNECTIVES:
        return _CONNECTIVES[op].build(
            *(formula_from_obj(a) for a in obj["args"]))
    if op in _QUANTIFIERS:
        return _QUANTIFIERS[op].build([_var_from_obj(v) for v in obj["vars"]],
                                      formula_from_obj(obj["body"]))
    raise ValueError(f"unknown formula op {op!r}")
