"""Hash-consing: interning must be invisible except for speed.

Structural equality, hashing, normalization and pickling must behave
exactly as they did for plain structural nodes; on top of that, equal
nodes built independently must now be the *same* object.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import (
    FALSE,
    TRUE,
    LinTerm,
    Rel,
    Var,
    atom,
    conj,
    disj,
    dvd,
    neg,
)
from repro import obs
from repro.logic.formulas import And, Atom, Dvd, Not, Or, exists, forall
from repro.logic.intern import clear_intern_tables, intern_stats
from repro.logic.terms import Var
from repro.qe.cooper import clear_qe_caches, eliminate_exists
from repro.smt import SmtSolver

from .strategies import VARS, atoms, formulas, lin_terms

X, Y, Z = VARS


def rebuild(phi):
    """Reconstruct a formula bottom-up through the smart constructors."""
    if phi.is_true or phi.is_false:
        return phi
    if isinstance(phi, Atom):
        return atom(phi.rel, LinTerm.make(list(phi.term.coeffs),
                                          phi.term.const))
    if isinstance(phi, Dvd):
        return dvd(phi.divisor, LinTerm.make(list(phi.term.coeffs),
                                             phi.term.const),
                   phi.negated_flag)
    if isinstance(phi, Not):
        return neg(rebuild(phi.arg))
    if isinstance(phi, And):
        return conj(*(rebuild(a) for a in phi.args))
    if isinstance(phi, Or):
        return disj(*(rebuild(a) for a in phi.args))
    raise TypeError(phi)


class TestIdentity:
    @given(lin_terms())
    def test_terms_intern_to_identity(self, t):
        copy = LinTerm.make(list(t.coeffs), t.const)
        assert copy == t
        assert copy is t
        assert hash(copy) == hash(t)

    @given(formulas())
    def test_rebuilt_formula_is_same_object(self, phi):
        assert rebuild(phi) is phi

    @given(formulas(), formulas())
    def test_equality_iff_identity(self, phi, psi):
        assert (phi == psi) == (phi is psi)

    def test_quantifiers_intern(self):
        body = atom(Rel.LE, LinTerm.make([(X, 1), (Y, -1)], 0))
        assert exists([X], body) is exists([X], body)
        assert forall([X], body) is forall([X], body)

    def test_constants_are_singletons(self):
        assert TRUE is type(TRUE)()
        assert FALSE is type(FALSE)()


class TestStructuralSemantics:
    """Interned nodes must still compare structurally (the fallback for
    nodes that escape the tables, e.g. across pickling boundaries)."""

    @given(formulas())
    def test_pickle_roundtrip_reinterns(self, phi):
        clone = pickle.loads(pickle.dumps(phi))
        assert clone == phi
        assert clone is phi          # __reduce__ goes through the interner

    @given(lin_terms())
    def test_term_pickle_roundtrip(self, t):
        clone = pickle.loads(pickle.dumps(t))
        assert clone == t and clone is t

    @given(atoms())
    def test_negation_is_involutive(self, a):
        assert neg(neg(a)) is a

    @given(atoms())
    def test_negated_memo_matches_fresh_computation(self, a):
        first = neg(a)
        # hit the memo a second time; also via the atom's own method
        assert neg(a) is first
        if isinstance(a, (Atom, Dvd)):
            assert a.negated() is first

    @given(atoms(), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3))
    def test_negation_semantics(self, a, x, y, z):
        env = {X: x, Y: y, Z: z}
        assert neg(a).evaluate(env) == (not a.evaluate(env))


class TestNormalization:
    """conj/disj/neg smart-constructor semantics survive interning."""

    @settings(max_examples=60)
    @given(formulas(max_depth=2), formulas(max_depth=2),
           st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
    def test_conj_disj_semantics(self, phi, psi, x, y, z):
        env = {X: x, Y: y, Z: z}
        both = conj(phi, psi)
        either = disj(phi, psi)
        assert both.evaluate(env) == (phi.evaluate(env)
                                      and psi.evaluate(env))
        assert either.evaluate(env) == (phi.evaluate(env)
                                        or psi.evaluate(env))

    @given(formulas(max_depth=2))
    def test_conj_dedup_and_idempotence(self, phi):
        assert conj(phi, phi) is conj(phi)
        assert disj(phi, phi) is disj(phi)

    @given(atoms())
    def test_complementary_literals_fold(self, a):
        assert conj(a, neg(a)) is FALSE
        assert disj(a, neg(a)) is TRUE

    @settings(max_examples=60)
    @given(formulas(max_depth=2), st.integers(-2, 2), st.integers(-2, 2),
           st.integers(-2, 2))
    def test_neg_semantics(self, phi, x, y, z):
        env = {X: x, Y: y, Z: z}
        assert neg(phi).evaluate(env) == (not phi.evaluate(env))


class TestInternTables:
    def test_stats_report_registered_tables(self):
        stats = intern_stats()
        for name in ("LinTerm", "Atom", "Dvd", "And", "Or", "Not"):
            assert name in stats

    def test_clearing_preserves_correctness(self):
        a = atom(Rel.LE, LinTerm.make([(X, 1)], -3))
        clear_intern_tables()
        b = atom(Rel.LE, LinTerm.make([(X, 1)], -3))
        # `a` escaped the cleared table: identity is lost, but structural
        # equality and hashing must still hold
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        # and new constructions re-intern
        assert atom(Rel.LE, LinTerm.make([(X, 1)], -3)) is b


class TestSharedMemos:
    """The solver stack's memos are keyed on the hash-consed nodes and
    shared by every solver of the process: a structurally equal formula
    resurrected through a pickle round-trip, as the batch driver's forked
    workers do, re-interns to the same node and hits instead of
    recomputing.  Both memory valves empty all four memos."""

    MEMOS = ("smt.is_sat", "omega.solve_literals", "qe.elim",
             "qe.clause_sat")

    def setup_method(self):
        obs.reset()
        obs.enable()
        clear_qe_caches()

    def teardown_method(self):
        obs.disable()
        obs.reset()
        clear_qe_caches()

    @staticmethod
    def _phi():
        x, y, z = VARS
        return disj(
            atom(Rel.LE, LinTerm.make([(x, 1), (y, -2)], 3)),
            conj(atom(Rel.EQ, LinTerm.make([(y, 1), (z, 1)], -1)),
                 neg(atom(Rel.LE, LinTerm.make([(z, 1)], 0)))),
        )

    @staticmethod
    def _counters() -> dict:
        return dict(obs.snapshot().get("counters", {}))

    def test_smt_verdicts_hit_across_pickle(self):
        verdict = SmtSolver().is_sat(self._phi())
        blob = pickle.dumps(self._phi())
        before = self._counters()

        resurrected = pickle.loads(blob)
        # a fresh solver: the memo belongs to the process, not the solver
        assert SmtSolver().is_sat(resurrected) is verdict
        after = self._counters()
        assert after["smt.is_sat.miss"] == before["smt.is_sat.miss"]
        assert after.get("smt.is_sat.hit", 0) == \
            before.get("smt.is_sat.hit", 0) + 1

    def test_qe_elimination_hits_across_pickle(self):
        x = VARS[0]
        first = eliminate_exists([x], self._phi())
        blob = pickle.dumps(self._phi())
        before = self._counters()

        resurrected = eliminate_exists([x], pickle.loads(blob))
        after = self._counters()
        assert resurrected == first
        assert after.get("qe.elim.miss", 0) == before.get("qe.elim.miss", 0)
        assert after.get("qe.elim.hit", 0) > before.get("qe.elim.hit", 0)

    @pytest.mark.parametrize("valve", [clear_intern_tables, clear_qe_caches])
    def test_clears_empty_all_four_memos(self, valve):
        x, y, z = VARS
        SmtSolver().is_sat(self._phi())
        eliminate_exists([x], self._phi())
        # x > y > z > x: no witness model answers before the clause memo
        w = Var("w")
        eliminate_exists([w], conj(
            atom(Rel.LE, LinTerm.make([(y, 1), (x, -1)], 1)),
            atom(Rel.LE, LinTerm.make([(z, 1), (y, -1)], 1)),
            atom(Rel.LE, LinTerm.make([(x, 1), (z, -1), (w, 1)], 1)),
            atom(Rel.LE, LinTerm.make([(w, -1)], 0)),
        ))
        assert all(intern_stats()[name] for name in self.MEMOS), \
            intern_stats()
        valve()
        assert [intern_stats()[name] for name in self.MEMOS] == [0] * 4
