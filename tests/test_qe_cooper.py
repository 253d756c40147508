"""Tests for Cooper quantifier elimination.

The central property: eliminating ``exists x`` must produce a formula that
(a) is implied by any boxed witness (soundness over the box) and (b) when
true under an environment, admits a genuine integer witness for x — the
witness search uses the independent SMT stack, so the two procedures
cross-validate each other.
"""

import threading
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
from repro.logic.intern import MISSING, Memo
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


class _PeerClearsOnHit(OrderedDict):
    """A memo table whose ``get``, on a hit, starts a peer thread that
    empties the memo and waits for it before the lookup's LRU touch:
    only the memo's lock keeps the peer from evicting the entry first."""

    memo: Memo
    peers: list

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not default:
            peer = threading.Thread(target=self.memo.clear)
            peer.start()
            peer.join(timeout=0.05)
            self.peers.append(peer)
        return value


class TestMemoLruTouch:
    """A memo hit survives a peer evicting the entry before the touch
    (``repro serve`` worker threads share the solver stack's memos,
    :class:`repro.logic.intern.Memo`)."""

    def _rerun_with_peer_clearing(self, monkeypatch, memo, phi):
        cooper.clear_qe_caches()
        expected = eliminate_exists([z], phi)
        table = _PeerClearsOnHit(memo._table)
        table.memo, table.peers = memo, []
        monkeypatch.setattr(memo, "_table", table)
        assert eliminate_exists([z], phi) == expected
        assert table.peers, "the rerun never hit the memo"
        for peer in table.peers:
            peer.join(timeout=10)
        assert not any(peer.is_alive() for peer in table.peers)

    def test_elim_memo_hit(self, monkeypatch):
        phi = conj(ge(LinTerm.var(z), LinTerm.var(x)), le(z, 7))
        self._rerun_with_peer_clearing(monkeypatch, cooper._ELIMINATIONS, phi)

    def test_clause_sat_memo_hit(self, monkeypatch):
        # x > y > z > x: no model, so no recent witness model answers
        # before the memo lookup
        phi = conj(gt(LinTerm.var(x), LinTerm.var(y)),
                   gt(LinTerm.var(y), LinTerm.var(z)),
                   gt(LinTerm.var(z), LinTerm.var(x)))
        self._rerun_with_peer_clearing(
            monkeypatch, cooper._CLAUSE_VERDICTS, phi)

    def test_threads_share_one_memo(self):
        """More threads than cores hammer one small memo under a short
        switch interval, so peers evict an entry between another
        thread's lookup and its LRU touch, and one peer keeps emptying
        the table between inserts and their evictions: nothing raises
        or crashes, every hit is its key's value, and the bound holds."""
        import sys
        import time

        memo = Memo("test.memo", 8)
        keys = [le(x, i) for i in range(32)]
        wrong: list = []
        done = threading.Event()

        def work(seed: int) -> None:
            try:
                for step in range(10_000):
                    i = (seed * 7 + step * 13) % len(keys)
                    value = memo.get(keys[i])
                    if value is MISSING:
                        memo.put(keys[i], i)
                    elif value != i:
                        wrong.append((i, value))
                    if len(memo) > 8:
                        wrong.append(len(memo))
            except Exception as exc:  # a thread's exception is lost otherwise
                wrong.append(exc)

        def empty() -> None:
            while not done.is_set():
                memo.clear()
                time.sleep(1e-4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(8)]
            peer = threading.Thread(target=empty)
            for t in threads + [peer]:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            peer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [peer])
        assert wrong == []

    def test_stored_none_is_a_hit(self):
        """Omega memoizes UNSAT as ``None``: only :data:`MISSING` is a
        miss."""
        memo = Memo("test.memo", 4)
        memo.put(le(x, 1), None)
        assert memo.get(le(x, 1)) is None
        assert memo.get(le(x, 2)) is MISSING


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
