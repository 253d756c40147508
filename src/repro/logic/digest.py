"""Stable content digests for terms and formulas.

Hash-consing (:mod:`repro.logic.intern`) gives every node an in-process
identity and a cached *Python* hash — but Python hashes are salted per
process (``PYTHONHASHSEED``) and identity dies at the process boundary,
so neither can key anything persistent.  This module gives every
:class:`~repro.logic.terms.Var`, :class:`~repro.logic.terms.LinTerm` and
:class:`~repro.logic.formulas.Formula` a *content digest*: a short hex
string computed purely from the node's structure, so it is

* independent of intern-table state (clearing the tables, or rebuilding
  a structurally equal node from scratch, yields the same digest);
* valid across processes and pickling (no Python ``hash()`` anywhere in
  its computation); and
* cached on the node (the ``_dg`` slot), so the amortized cost is one
  BLAKE2b call per *new* node — children's digests are already cached.

Digests key only what crosses a process boundary: the entries of the
on-disk content-addressed store (:mod:`repro.cache`) and the stage keys
built from them.  The in-process solver memos key on the interned nodes
themselves (:class:`repro.logic.intern.Memo`).  :data:`DIGEST_VERSION`
is folded into every digest so a change to the digest scheme (or to
node semantics) can invalidate every derived cache at once.
"""

from __future__ import annotations

from hashlib import blake2b

from .formulas import (
    Atom,
    Connective,
    Dvd,
    Formula,
    Not,
    Quantifier,
    _FalseFormula,
    _TrueFormula,
)
from .terms import LinTerm, Var

__all__ = ["DIGEST_VERSION", "digest", "digest_many", "digest_text"]

#: Bump to invalidate every digest-keyed cache (on-disk stores included).
DIGEST_VERSION = "dg1"

_SIZE = 16  # 128-bit digests: collision-safe for any realistic workload


def _hash(*parts: str) -> str:
    h = blake2b(digest_size=_SIZE)
    h.update(DIGEST_VERSION.encode())
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


def digest_text(text: str) -> str:
    """Digest of raw text (program sources, config fingerprints)."""
    return _hash("text", text)


def digest_many(*parts: "str | Var | LinTerm | Formula") -> str:
    """One digest over a heterogeneous sequence of nodes and strings.

    The combination is order-sensitive and unambiguous (each part is a
    fixed-size digest), so composite cache keys — ``(stage, I, phi,
    witnesses...)`` — are themselves stable content addresses.
    """
    return _hash("many", *(p if isinstance(p, str) else digest(p)
                           for p in parts))


# Digests of the two singletons, which have no ``_dg`` slot.
_TRUE_DG = _hash("true")
_FALSE_DG = _hash("false")


def digest(node: "Var | LinTerm | Formula") -> str:
    """The content digest of a variable, term or formula node."""
    if isinstance(node, _TrueFormula):
        return _TRUE_DG
    if isinstance(node, _FalseFormula):
        return _FALSE_DG
    cached = getattr(node, "_dg", None)
    if cached is not None:
        return cached
    d = _compute(node)
    object.__setattr__(node, "_dg", d)
    return d


def _compute(node: "Var | LinTerm | Formula") -> str:
    if isinstance(node, Var):
        return _hash("var", node.name, node.kind.value)
    if isinstance(node, LinTerm):
        parts: list[str] = ["term", str(node.const)]
        for v, c in node.coeffs:
            parts.append(digest(v))
            parts.append(str(c))
        return _hash(*parts)
    if isinstance(node, Atom):
        return _hash("atom", node.rel.value, digest(node.term))
    if isinstance(node, Dvd):
        return _hash("dvd", str(node.divisor),
                     "1" if node.negated_flag else "0", digest(node.term))
    if isinstance(node, Not):
        return _hash("not", digest(node.arg))
    if isinstance(node, Connective):
        return _hash(node.tag, *(digest(a) for a in node.args))
    if isinstance(node, Quantifier):
        return _hash(node.tag, *(digest(v) for v in node.variables),
                     digest(node.body))
    raise TypeError(f"cannot digest {node!r}")
