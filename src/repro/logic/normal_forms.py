"""Negation, conjunctive and disjunctive normal forms.

NNF is required by both the Omega-test frontend and Cooper quantifier
elimination.  CNF/DNF (by distribution — formula sizes in this system are
small) drive the query decomposition of Section 4.4: invariant queries
distribute over CNF clauses, witness queries over DNF clauses.
"""

from __future__ import annotations

from typing import Iterable

from .digest import digest
from .intern import register_table
from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Connective,
    Dvd,
    Formula,
    Not,
    Or,
    Quantifier,
    conj,
    disj,
    neg,
)


# Cross-call result caches.  Both conversions are pure functions of the
# (hash-consed) input formula, and the abduction loop converts the same
# guard formulas round after round.  Registered as intern tables so the
# memory valve (:func:`repro.logic.intern.clear_intern_tables`) clears
# them alongside the node tables.
_NNF_CACHE_LIMIT = 1 << 15
_nnf_cache: dict[Formula, Formula] = register_table("nnf()", {})
_DNF_CACHE_LIMIT = 1 << 13
_dnf_cache: dict = register_table("dnf_clauses()", {})


def nnf(phi: Formula) -> Formula:
    """Negation normal form: negations pushed onto atoms and eliminated.

    Works on quantified formulas too (negation flips quantifiers).  Atoms
    absorb their negations (the atom language is closed under negation),
    so the result contains no ``Not`` nodes at all.  Memoized over the
    shared-subformula DAG: formulas built by the symbolic analysis share
    guard subtrees heavily, and a structural recursion would revisit them
    exponentially often.
    """
    cached = _nnf_cache.get(phi)
    if cached is None:
        cached = _nnf(phi, {})
        if len(_nnf_cache) < _NNF_CACHE_LIMIT:
            _nnf_cache[phi] = cached
    return cached


def _nnf(phi: Formula, memo: dict[Formula, Formula]) -> Formula:
    cached = memo.get(phi)
    if cached is not None:
        return cached
    result = _nnf_raw(phi, memo)
    memo[phi] = result
    return result


def _nnf_raw(phi: Formula, memo: dict[Formula, Formula]) -> Formula:
    if isinstance(phi, (Atom, Dvd)) or phi is TRUE or phi is FALSE:
        return phi
    if isinstance(phi, Connective):
        return phi.build(*(_nnf(a, memo) for a in phi.args))
    if isinstance(phi, Quantifier):
        return phi.build(phi.variables, _nnf(phi.body, memo))
    if isinstance(phi, Not):
        inner = phi.arg
        if isinstance(inner, (Atom, Dvd)):
            return inner.negated()
        if inner is TRUE:
            return FALSE
        if inner is FALSE:
            return TRUE
        if isinstance(inner, Not):
            return _nnf(inner.arg, memo)
        # De Morgan: the negation goes inside the dual
        if isinstance(inner, Connective):
            return inner.dual.build(*(_nnf(neg(a), memo) for a in inner.args))
        if isinstance(inner, Quantifier):
            return inner.dual.build(inner.variables,
                                    _nnf(neg(inner.body), memo))
    raise TypeError(f"unexpected formula node {phi!r}")


Clause = tuple[Formula, ...]


def _literals(phi: Formula) -> bool:
    return isinstance(phi, (Atom, Dvd))


def dnf_clauses(phi: Formula, *, limit: int = 200_000) -> list[list[Formula]]:
    """Disjunctive normal form as a list of conjunctive clauses of literals.

    ``phi`` must be quantifier-free; it is first converted to NNF.  Trivial
    clauses are dropped, and clauses containing complementary literals are
    removed.  ``limit`` guards against exponential blowup.  Each clause
    lists its literals in digest order: a clause is a set, and the
    iteration order of a set follows the interpreter's hash seed.
    """
    key = (phi, limit)
    cached = _dnf_cache.get(key)
    if cached is None:
        budget = [limit]
        cached = tuple(
            tuple(sorted(clause, key=digest))
            for clause, _negs in _dnf(nnf(phi), budget, {})
        )
        if len(_dnf_cache) < _DNF_CACHE_LIMIT:
            _dnf_cache[key] = cached
    return [list(clause) for clause in cached]


# a clause paired with the set of negations of its literals, so the
# contradiction test during an And-merge is one frozenset.isdisjoint
# call instead of a scan of the merged clause
_Clause = tuple[frozenset[Formula], frozenset[Formula]]


def _dnf(phi: Formula, budget: list[int],
         memo: dict[Formula, list[_Clause]]) -> list[_Clause]:
    """DNF over the shared-subformula DAG, memoized per top-level call.

    Guard formulas from the symbolic analysis share subtrees heavily; a
    plain structural recursion re-walks each shared node once per path
    to it (30x+ on the Figure-7 workloads).  The memo makes each node
    convert exactly once.  Clauses carry their negation sets: both sides
    of a merge are contradiction-free by induction, so the merged clause
    is contradictory iff a literal of one side appears negated in the
    other — literal negation is an involution on hash-consed atoms, so
    checking one direction (``left`` against ``right``'s negations)
    covers both.
    """
    cached = memo.get(phi)
    if cached is not None:
        return cached
    result = _dnf_raw(phi, budget, memo)
    memo[phi] = result
    return result


def _dnf_raw(phi: Formula, budget: list[int],
             memo: dict[Formula, list[_Clause]]) -> list[_Clause]:
    if phi is TRUE:
        return [(frozenset(), frozenset())]
    if phi is FALSE:
        return []
    if _literals(phi):
        assert isinstance(phi, (Atom, Dvd))
        return [(frozenset([phi]), frozenset([phi.negated()]))]
    if isinstance(phi, Or):
        result: list[_Clause] = []
        seen: set[frozenset[Formula]] = set()
        for arg in phi.args:
            for pair in _dnf(arg, budget, memo):
                if pair[0] not in seen:
                    seen.add(pair[0])
                    result.append(pair)
        return result
    if isinstance(phi, And):
        acc: list[_Clause] = [(frozenset(), frozenset())]
        for arg in phi.args:
            sub = _dnf(arg, budget, memo)
            merged: list[_Clause] = []
            seen = set()
            for left, left_negs in acc:
                for right, right_negs in sub:
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise MemoryError("DNF conversion exceeded size limit")
                    if not left.isdisjoint(right_negs):
                        continue  # complementary pair: drop the clause
                    clause = left | right
                    if clause not in seen:
                        seen.add(clause)
                        merged.append((clause, left_negs | right_negs))
            acc = merged
            if not acc:
                return []
        return acc
    raise TypeError(f"dnf: unexpected node {phi!r} (quantifier-free input?)")


def cnf_clauses(phi: Formula, *, limit: int = 200_000) -> list[list[Formula]]:
    """Conjunctive normal form as a list of disjunctive clauses of literals.

    Implemented by duality: CNF(phi) = negate clauses of DNF(not phi).
    """
    negated = dnf_clauses(neg(phi), limit=limit)
    clauses: list[list[Formula]] = []
    for clause in negated:
        lits = []
        for lit in clause:
            assert isinstance(lit, (Atom, Dvd))
            lits.append(lit.negated())
        clauses.append(lits)
    return clauses


def from_dnf(clauses: Iterable[Iterable[Formula]]) -> Formula:
    return disj(*(conj(*clause) for clause in clauses))


def from_cnf(clauses: Iterable[Iterable[Formula]]) -> Formula:
    return conj(*(disj(*clause) for clause in clauses))
