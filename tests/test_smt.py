"""Tests for the lazy SMT solver, cross-checked against brute force."""

import pytest
from hypothesis import assume, given, settings

from repro import obs
from repro.batch import triage_many
from repro.cache import open_store
from repro.logic import (
    FALSE,
    TRUE,
    Atom,
    Dvd,
    LinTerm,
    Rel,
    Var,
    atom,
    conj,
    digest,
    disj,
    dvd,
    eq,
    exists,
    forall,
    ge,
    gt,
    le,
    lt,
    ne,
    neg,
    parse_formula,
)
from repro.qe.cooper import clear_qe_caches
from repro.smt import (
    SmtSolver,
    atom_polarity,
    entails,
    equivalent,
    is_sat,
    is_valid,
)
from repro.suite import BENCHMARKS
from .helpers import assert_model, brute_force_sat
from .strategies import VARS, atoms, formulas, literal_lists

x, y, z = Var("x"), Var("y"), Var("z")


class TestBasicSat:
    def test_constants(self):
        assert is_sat(TRUE)
        assert not is_sat(FALSE)

    def test_single_atom(self):
        assert is_sat(le(x, 3))
        assert not is_sat(conj(le(x, 0), ge(x, 1)))

    def test_boolean_structure(self):
        phi = conj(disj(le(x, 0), ge(x, 10)), ge(x, 5), le(x, 20))
        solver = SmtSolver()
        result = solver.check(phi)
        assert result.sat
        assert_model(phi, result.model)
        assert 10 <= result.model[x] <= 20

    def test_unsat_needs_theory(self):
        # propositionally consistent, theory-inconsistent across atoms
        phi = conj(lt(x, y), lt(y, z), lt(z, x))
        assert not is_sat(phi)

    def test_shared_atom_polarity(self):
        # x <= 0 and its negation must share a boolean variable
        phi = conj(disj(le(x, 0), ge(x, 5)), neg(le(x, 0)), le(x, 7))
        solver = SmtSolver()
        result = solver.check(phi)
        assert result.sat
        assert 5 <= result.model[x] <= 7

    def test_equality_disequality_pair(self):
        phi = conj(disj(eq(x, 3), eq(x, 4)), ne(x, 3))
        model = SmtSolver().get_model(phi)
        assert model[x] == 4


class TestValidityEntailment:
    def test_valid_tautology(self):
        assert is_valid(disj(le(x, 5), ge(x, 5)))
        assert is_valid(disj(le(x, 4), ge(x, 5)))
        assert not is_valid(disj(le(x, 3), ge(x, 5)))

    def test_entailment(self):
        assert entails(le(x, 3), le(x, 10))
        assert not entails(le(x, 10), le(x, 3))
        assert entails(conj(le(x, y), le(y, z)), le(x, z))

    def test_equivalent(self):
        assert equivalent(lt(x, 3), le(x, 2))
        assert not equivalent(lt(x, 3), le(x, 3))

    def test_paper_running_example_neither_entailment(self):
        """Section 1.1: I |/= phi and I |/= !phi for the foo example."""
        inv = parse_formula(
            "ann >= 0 && ai >= 0 && ai > n && n >= 0"
        )
        phi = parse_formula(
            "(1 + ai + aj > 2*n && flag == 0) ||"
            " (ann + ai + aj > 2*n && flag != 0)"
        )
        assert not entails(inv, phi)
        assert not entails(inv, neg(phi))

    def test_paper_proof_obligation_discharges(self):
        """With aj >= n added, I entails phi (the paper's Gamma)."""
        inv = parse_formula(
            "ann >= 0 && ai >= 0 && ai > n && n >= 0"
        )
        phi = parse_formula(
            "(1 + ai + aj > 2*n && flag == 0) ||"
            " (ann + ai + aj > 2*n && flag != 0)"
        )
        gamma = parse_formula("aj >= n")
        assert entails(conj(inv, gamma), phi)

    def test_paper_failure_witness_validates(self):
        """With !flag and ai + aj < 0, I entails !phi."""
        inv = parse_formula(
            "ann >= 0 && ai >= 0 && ai > n && n >= 0"
        )
        phi = parse_formula(
            "(1 + ai + aj > 2*n && flag == 0) ||"
            " (ann + ai + aj > 2*n && flag != 0)"
        )
        upsilon = parse_formula("flag == 0 && ai + aj < 0")
        assert is_sat(conj(inv, upsilon))
        assert entails(conj(inv, upsilon), neg(phi))


class TestQuantifiedInput:
    def test_exists_handled_via_qe(self):
        phi = exists([y], conj(eq(LinTerm.var(y, 2), LinTerm.var(x)),
                               ge(y, 1)))
        solver = SmtSolver()
        result = solver.check(phi)
        assert result.sat
        assert result.model[x] % 2 == 0 and result.model[x] >= 2

    def test_forall_valid(self):
        phi = forall([x], disj(le(x, 10), gt(x, 5)))
        assert is_valid(phi)


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_smt_agrees_with_brute_force(phi):
    solver = SmtSolver()
    result = solver.check(phi)
    if result.sat:
        assert_model(phi, result.model)
    else:
        witness = brute_force_sat(phi, VARS, 4)
        assert witness is None, (
            f"SMT said UNSAT but {witness} satisfies {phi}"
        )


@settings(max_examples=100, deadline=None)
@given(formulas(max_depth=2))
def test_validity_matches_negation_unsat(phi):
    solver = SmtSolver()
    assert solver.is_valid(phi) == (not solver.is_sat(neg(phi)))


# ---------------------------------------------------------------------------
# one decision per formula, literal conjunctions, atom polarity
# ---------------------------------------------------------------------------

def _polarity_by_arithmetic(literal):
    """(base atom, polarity) computed from the terms: the reference the
    atoms' memoized negations must reproduce."""
    if isinstance(literal, Atom):
        if literal.rel is Rel.NE:
            return atom(Rel.EQ, literal.term), False
        if literal.rel is Rel.EQ:
            return literal, True
        if literal.term.coeffs[0][1] > 0:
            return literal, True
        return atom(Rel.LE, -literal.term + 1), False
    if literal.negated_flag:
        return Dvd(literal.divisor, literal.term, False), False
    return literal, True


X = LinTerm.var(x)

_LITERALS = {
    "le-positive": le(x, 3),
    "le-negative": ge(x, 3),
    "eq": eq(x, y),
    "ne": ne(x, y),
    "dvd": dvd(3, X + 1),
    "dvd-negated": dvd(3, X + 1, True),
}

# literal conjunctions, each listed with its verdict
_CONJUNCTIONS = {
    "sat": (conj(le(x, y), ne(x, 0), ge(y, 2)), True),
    "unsat-cycle": (conj(lt(x, y), lt(y, z), lt(z, x)), False),
    "dvd-sat": (conj(dvd(2, X), dvd(3, X), ge(x, 1), le(x, 12)), True),
    "dvd-unsat": (conj(dvd(2, X), eq(x, 3)), False),
    "dvd-negated-unsat": (conj(dvd(2, X, True), ge(x, 4), le(x, 4)), False),
    "single-dvd": (dvd(5, X + 2), True),
}


@pytest.mark.parametrize("name", sorted(_LITERALS))
def test_atom_polarity_matches_term_arithmetic(name):
    literal = _LITERALS[name]
    base, polarity = atom_polarity(literal)
    assert (base, polarity) == _polarity_by_arithmetic(literal)
    assert atom_polarity(neg(literal)) == (base, not polarity)


@settings(max_examples=300, deadline=None)
@given(atoms())
def test_atom_polarity_matches_term_arithmetic_on_random_literals(literal):
    assume(isinstance(literal, (Atom, Dvd)))
    for lit in (literal, neg(literal)):
        assert atom_polarity(lit) == _polarity_by_arithmetic(lit)


def test_atom_polarity_on_every_figure7_literal(monkeypatch):
    """Every literal of every formula a cold Figure-7 pass checks."""
    seen = set()
    prepare = SmtSolver._prepare

    def recording_prepare(phi):
        prepared = prepare(phi)
        seen.update(prepared.atoms())
        return prepared

    monkeypatch.setattr(SmtSolver, "_prepare", staticmethod(recording_prepare))
    clear_qe_caches()
    triage_many([b.name for b in BENCHMARKS], jobs=1)
    assert len(seen) > 100
    for literal in seen:
        assert atom_polarity(literal) == _polarity_by_arithmetic(literal)


def _lazy_and_direct(phi):
    """``phi``'s result from the lazy DPLL(T) loop and from ``check``,
    each computed from cleared memos."""
    solver = SmtSolver()
    clear_qe_caches()
    lazy = solver._check_lazy(phi)
    clear_qe_caches()
    return lazy, solver.check(phi)


@pytest.mark.parametrize("name", sorted(_CONJUNCTIONS))
def test_literal_conjunction_skips_the_sat_search(name, live_counters):
    phi, verdict = _CONJUNCTIONS[name]
    lazy, direct = _lazy_and_direct(phi)
    assert direct.sat == lazy.sat == verdict
    assert direct.model == lazy.model
    if verdict:
        assert_model(phi, direct.model)
    clear_qe_caches()
    with obs.capture() as scope:
        SmtSolver().check(phi)
    counters = scope.snapshot["counters"]
    assert "smt.fresh_checks" not in counters
    assert "sat.solves" not in counters


@settings(max_examples=200, deadline=None)
@given(literal_lists())
def test_literal_conjunctions_answer_as_the_lazy_loop(literals):
    phi = conj(*literals)
    assume(not (phi.is_true or phi.is_false))
    lazy, direct = _lazy_and_direct(phi)
    assert direct.sat == lazy.sat
    assert direct.model == lazy.model


_NEEDS_SEARCH = {
    "sat": conj(disj(le(x, 0), ge(x, 10)), ge(x, 5), le(x, 20)),
    "unsat": conj(disj(lt(x, y), lt(y, x)), eq(x, y)),
}


@pytest.mark.parametrize("name", sorted(_NEEDS_SEARCH))
def test_second_check_starts_no_fresh_check(name, live_counters):
    phi = _NEEDS_SEARCH[name]
    clear_qe_caches()
    with obs.capture() as cold_scope:
        cold = SmtSolver().check(phi)
    with obs.capture() as warm_scope:
        warm = SmtSolver().check(phi)
    assert warm.sat == cold.sat == (name == "sat")
    assert warm.model == cold.model
    assert cold_scope.snapshot["counters"]["smt.fresh_checks"] == 1
    assert cold_scope.snapshot["counters"]["sat.solves"] >= 1
    assert "smt.fresh_checks" not in warm_scope.snapshot["counters"]
    assert "sat.solves" not in warm_scope.snapshot["counters"]


def test_stored_verdict_answers_is_sat_and_check_still_models(
        tmp_path, live_counters):
    phi = _NEEDS_SEARCH["sat"]
    store = open_store(tmp_path / "store")
    store.put("smt-sat", digest(phi), {"sat": True})
    clear_qe_caches()
    solver = SmtSolver(store)
    with obs.capture() as scope:
        assert solver.is_sat(phi)
    counters = scope.snapshot["counters"]
    assert counters["smt.is_sat.hit"] == 1
    assert "smt.fresh_checks" not in counters
    assert "sat.solves" not in counters
    result = solver.check(phi)
    assert result.sat
    assert_model(phi, result.model)
