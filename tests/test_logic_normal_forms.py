"""Tests for NNF/CNF/DNF, including hypothesis equivalence properties."""

import pickle

from hypothesis import assume, given, settings, strategies as st

from repro.logic import (
    Not,
    Var,
    cnf_clauses,
    dnf_clauses,
    from_cnf,
    from_dnf,
    neg,
    nnf,
    parse_formula,
)
from repro.logic.digest import digest
from repro.logic.intern import clear_intern_tables

from .helpers import enumerate_box
from .strategies import deep_formulas, formulas, VARS


class TestNNF:
    def test_removes_not_nodes(self):
        f = parse_formula("!(x < 1 && !(y > 2 || x == y))")
        result = nnf(f)
        assert not any(isinstance(n, Not) for n in _walk(result))

    def test_flips_quantifiers(self):
        f = neg(parse_formula("forall x. x < y"))
        result = nnf(f)
        assert "exists" in str(result)

    def test_idempotent(self):
        f = parse_formula("!(x < 1) || !(y == 2 && x > y)")
        assert nnf(nnf(f)) == nnf(f)


class TestCNFDNF:
    def test_dnf_of_conjunction(self):
        f = parse_formula("x < 1 && y < 2")
        clauses = dnf_clauses(f)
        assert len(clauses) == 1
        assert len(clauses[0]) == 2

    def test_dnf_distributes(self):
        f = parse_formula("(x < 1 || x > 5) && (y < 1 || y > 5)")
        assert len(dnf_clauses(f)) == 4

    def test_contradictory_clauses_dropped(self):
        f = parse_formula("(x < 1 || y < 1) && x >= 1 && y >= 1")
        assert dnf_clauses(f) == []

    def test_cnf_of_disjunction(self):
        f = parse_formula("x < 1 || y < 2")
        clauses = cnf_clauses(f)
        assert len(clauses) == 1
        assert len(clauses[0]) == 2

    def test_true_false(self):
        from repro.logic import TRUE, FALSE

        assert dnf_clauses(TRUE) == [[]]
        assert dnf_clauses(FALSE) == []
        assert cnf_clauses(TRUE) == []
        assert cnf_clauses(FALSE) == [[]]


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_nnf_preserves_semantics(phi):
    result = nnf(phi)
    for env in enumerate_box(VARS, 2):
        assert phi.evaluate(env) == result.evaluate(env)


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_dnf_preserves_semantics(phi):
    try:
        rebuilt = from_dnf(dnf_clauses(phi, limit=20_000))
    except MemoryError:
        # Discard just this draw; skipping would drop the whole test and
        # the example database would replay the oversized draw forever.
        assume(False)
    for env in enumerate_box(VARS, 2):
        assert phi.evaluate(env) == rebuilt.evaluate(env)


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_cnf_preserves_semantics(phi):
    try:
        rebuilt = from_cnf(cnf_clauses(phi, limit=20_000))
    except MemoryError:
        assume(False)
    for env in enumerate_box(VARS, 2):
        assert phi.evaluate(env) == rebuilt.evaluate(env)


def _normal_form_digests(phi, limit=50_000):
    """Content digests of the normalized forms (None when too large)."""
    try:
        return (digest(nnf(phi)),
                digest(from_cnf(cnf_clauses(phi, limit=limit))),
                digest(from_dnf(dnf_clauses(phi, limit=limit))))
    except MemoryError:
        return None


@settings(max_examples=50, deadline=None)
@given(deep_formulas())
def test_deep_shared_normal_forms_preserve_semantics(phi):
    """CNF/DNF stay correct on deeply nested, heavily shared DAGs."""
    assume(_normal_form_digests(phi) is not None)
    cnf = from_cnf(cnf_clauses(phi, limit=50_000))
    dnf = from_dnf(dnf_clauses(phi, limit=50_000))
    for env in enumerate_box(VARS, 2):
        want = phi.evaluate(env)
        assert cnf.evaluate(env) == want
        assert dnf.evaluate(env) == want


@settings(max_examples=50, deadline=None)
@given(deep_formulas())
def test_normal_form_digests_survive_intern_state(phi):
    """Normalization is a pure function of formula *content*: the
    digests of the normalized output must not depend on intern-table
    state (cleared tables) or on which process built the input (pickle
    round-trip) — that is what makes them usable as persistent cache
    keys."""
    baseline = _normal_form_digests(phi)
    assume(baseline is not None)
    clone = pickle.loads(pickle.dumps(phi))
    clear_intern_tables()
    resurrected = pickle.loads(pickle.dumps(clone))
    assert _normal_form_digests(clone) == baseline
    assert _normal_form_digests(resurrected) == baseline


def _walk(phi):
    yield phi
    for attr in ("args",):
        for child in getattr(phi, attr, ()):
            yield from _walk(child)
    if hasattr(phi, "arg"):
        yield from _walk(phi.arg)
    if hasattr(phi, "body"):
        yield from _walk(phi.body)
