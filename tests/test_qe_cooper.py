"""Tests for Cooper quantifier elimination.

The central property: eliminating ``exists x`` must produce a formula that
(a) is implied by any boxed witness (soundness over the box) and (b) when
true under an environment, admits a genuine integer witness for x — the
witness search uses the independent SMT stack, so the two procedures
cross-validate each other.
"""

from collections import OrderedDict

from hypothesis import given, settings

from repro.logic import (
    LinTerm,
    Var,
    conj,
    disj,
    dvd,
    eq,
    exists,
    forall,
    ge,
    gt,
    is_quantifier_free,
    le,
    lt,
    ne,
    parse_formula,
)
from repro.qe import (
    decide_closed,
    eliminate_exists,
    eliminate_forall,
    eliminate_quantifiers,
    project,
)
from repro.qe import cooper
from repro.smt import SmtSolver
from .helpers import enumerate_box
from .strategies import VARS, formulas

x, y, z = Var("x"), Var("y"), Var("z")


class TestEliminateExists:
    def test_trivial_bounds(self):
        # exists x. 0 <= x <= 5 : true
        result = eliminate_exists([x], conj(ge(x, 0), le(x, 5)))
        assert result.is_true or result.evaluate({})

    def test_empty_interval(self):
        result = eliminate_exists([x], conj(ge(x, 5), le(x, 4)))
        assert result.is_false or not result.evaluate({})

    def test_projection_keeps_relation(self):
        # exists x. y <= x <= z   <=>   y <= z
        phi = conj(ge(LinTerm.var(x), LinTerm.var(y)),
                   le(LinTerm.var(x), LinTerm.var(z)))
        result = eliminate_exists([x], phi)
        solver = SmtSolver()
        assert solver.equivalent(result, le(LinTerm.var(y), LinTerm.var(z)))

    def test_scaled_projection(self):
        # exists x. 2x = y   <=>   2 | y
        phi = eq(LinTerm.var(x, 2), LinTerm.var(y))
        result = eliminate_exists([x], phi)
        solver = SmtSolver()
        assert solver.equivalent(result, dvd(2, LinTerm.var(y)))

    def test_divisibility_interaction(self):
        # exists x. (2 | x) and (3 | x) and y <= x <= y+5  <=>  one of
        # y..y+5 is divisible by 6: always true
        phi = conj(
            dvd(2, LinTerm.var(x)),
            dvd(3, LinTerm.var(x)),
            ge(LinTerm.var(x), LinTerm.var(y)),
            le(LinTerm.var(x), LinTerm.var(y) + 5),
        )
        result = eliminate_exists([x], phi)
        solver = SmtSolver()
        assert solver.is_valid(result)

    def test_result_is_quantifier_free(self):
        phi = conj(ge(LinTerm.var(x), LinTerm.var(y)), le(x, 10))
        assert is_quantifier_free(eliminate_exists([x], phi))


class TestEliminateForall:
    def test_forall_bound(self):
        # forall x. x >= y -> x >= z   <=>   z <= y ... (over integers)
        phi = le(LinTerm.var(y), LinTerm.var(x)).implies(
            le(LinTerm.var(z), LinTerm.var(x))
        )
        result = eliminate_forall([x], phi)
        solver = SmtSolver()
        assert solver.equivalent(result, le(LinTerm.var(z), LinTerm.var(y)))

    def test_lemma3_paper_example2(self):
        """The paper's Example 2: eliminating forall nu1, nu2, alpha_i from
        I => phi yields (after simplification) alpha_j >= 0."""
        inv = parse_formula("ai >= 0 && ai > n2")
        phi = parse_formula(
            "(n2 + ai + aj > 2*n2 && n2 > 0 && n1 > 0) ||"
            " (1 + ai + aj > 2*n2 && n2 <= 0 && n1 > 0) ||"
            " (2*n2 + 1 > 2*n2 && n1 <= 0)"
        )
        imp = inv.implies(phi)
        to_eliminate = [v for v in imp.free_vars() if v.name != "aj"]
        gamma = eliminate_forall(to_eliminate, imp)
        solver = SmtSolver()
        aj = Var("aj")
        assert solver.equivalent(gamma, ge(aj, 0))
        # and gamma is a proof obligation: consistent with I, discharges phi
        assert solver.entails(conj(gamma, inv), phi)
        assert solver.is_sat(conj(gamma, inv))


class TestDecideClosed:
    def test_every_integer_has_successor(self):
        assert decide_closed(
            forall([x], exists([y], eq(LinTerm.var(y), LinTerm.var(x) + 1)))
        )

    def test_no_half_integer(self):
        assert not decide_closed(
            exists([x], eq(LinTerm.var(x, 2), LinTerm.constant(1)))
        )

    def test_parity_covers(self):
        assert decide_closed(
            forall([x], disj(dvd(2, LinTerm.var(x)),
                             dvd(2, LinTerm.var(x) + 1)))
        )

    def test_dense_order_fails(self):
        # integers are not dense: exists a gap
        assert not decide_closed(
            forall([x], forall([y], lt(x, y).implies(
                exists([z], conj(lt(x, z), lt(z, y)))
            )))
        )

    def test_nested_alternation(self):
        # forall x exists y. 2y <= x < 2y + 2  (y = floor(x/2))
        assert decide_closed(
            forall([x], exists([y], conj(
                le(LinTerm.var(y, 2), LinTerm.var(x)),
                lt(LinTerm.var(x), LinTerm.var(y, 2) + 2),
            )))
        )


class TestProject:
    def test_project_removes_vars(self):
        phi = conj(eq(LinTerm.var(x), LinTerm.var(y) + 1), ge(y, 0))
        result = project(phi, {x})
        assert result.free_vars() <= {x}
        solver = SmtSolver()
        assert solver.equivalent(result, ge(x, 1))


class _EvictOnGet(OrderedDict):
    """A digest LRU whose ``get`` evicts the entry it returns: a peer
    thread's ``popitem`` landing between a lookup and its LRU touch."""

    def get(self, key, default=None):
        value = super().get(key, default)
        self.pop(key, None)
        return value


class TestMemoLruTouch:
    """A memo hit survives a peer evicting the entry before the touch
    (``repro serve`` worker threads share the QE LRUs)."""

    def _rerun_with_evicting(self, monkeypatch, name, phi):
        cooper.clear_qe_caches()
        expected = eliminate_exists([z], phi)
        # the identity-keyed front caches would answer before the LRUs
        cooper._elim_fast.clear()
        cooper._clause_sat_fast.clear()
        lru = _EvictOnGet(getattr(cooper, name))
        assert lru
        monkeypatch.setattr(cooper, name, lru)
        assert eliminate_exists([z], phi) == expected

    def test_elim_memo_hit(self, monkeypatch):
        phi = conj(ge(LinTerm.var(z), LinTerm.var(x)), le(z, 7))
        self._rerun_with_evicting(monkeypatch, "_elim_cache", phi)

    def test_clause_sat_memo_hit(self, monkeypatch):
        # x > y > z > x: no model, so no recent witness model answers
        # before the memo lookup
        phi = conj(gt(LinTerm.var(x), LinTerm.var(y)),
                   gt(LinTerm.var(y), LinTerm.var(z)),
                   gt(LinTerm.var(z), LinTerm.var(x)))
        self._rerun_with_evicting(monkeypatch, "_clause_sat_cache", phi)


@settings(max_examples=120, deadline=None)
@given(formulas(max_depth=2))
def test_cooper_sound_and_complete_on_box(phi):
    """For every env over the other vars (radius 3):
    - if some boxed x satisfies phi, the eliminated formula must hold;
    - if the eliminated formula holds, the SMT stack must find a witness x.
    """
    result = eliminate_exists([VARS[0]], phi)
    assert is_quantifier_free(result)
    assert VARS[0] not in result.free_vars()
    others = VARS[1:]
    solver = SmtSolver()
    for env in enumerate_box(others, 3):
        sub = {v: LinTerm.constant(c) for v, c in env.items()}
        grounded = phi.substitute(sub)          # only x free
        claimed = result.substitute(sub)
        claimed_value = (
            claimed.evaluate({}) if not claimed.free_vars() else None
        )
        assert claimed_value is not None
        has_witness = solver.is_sat(grounded)
        assert claimed_value == has_witness, (
            f"phi={phi}, env={env}, qe={result}"
        )
