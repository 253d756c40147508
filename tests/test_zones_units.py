"""Focused unit tests for the zone (DBM) domain internals."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.abstract.zones import Zone, _difference_form
from repro.lang.ast import BinOp, BoolOp, Cmp, Const, Name


def cmp(op, left, right):
    return Cmp(op, left, right)


class TestDifferenceForm:
    def test_constant(self):
        assert _difference_form(Const(5)) == (None, 5)

    def test_plain_name(self):
        assert _difference_form(Name("x")) == ("x", 0)

    def test_name_plus_const(self):
        expr = BinOp("+", Name("x"), Const(3))
        assert _difference_form(expr) == ("x", 3)

    def test_name_minus_const(self):
        expr = BinOp("-", Name("x"), Const(3))
        assert _difference_form(expr) == ("x", -3)

    def test_const_plus_name(self):
        expr = BinOp("+", Const(3), Name("x"))
        assert _difference_form(expr) == ("x", 3)

    def test_nonlinear_unrecognized(self):
        expr = BinOp("*", Name("x"), Name("y"))
        assert _difference_form(expr) is None

    def test_two_names_unrecognized(self):
        expr = BinOp("+", Name("x"), Name("y"))
        assert _difference_form(expr) is None


class TestClosure:
    def test_transitive_bound(self):
        zone = Zone.top(("x", "y", "z"))
        zone.assume(cmp("<=", Name("x"), Name("y")))
        zone.assume(cmp("<=", Name("y"), Name("z")))
        zone.assume(cmp("<=", Name("z"), Const(5)))
        zone.close()
        facts = [str(f) for f in zone.facts()]
        assert "x <= 5" in facts

    def test_join_loses_precision_soundly(self):
        a = Zone.top(("x",))
        a.assume(cmp("==", Name("x"), Const(1)))
        b = Zone.top(("x",))
        b.assume(cmp("==", Name("x"), Const(5)))
        joined = a.join(b)
        facts = [str(f) for f in joined.facts()]
        assert "x >= 1" in facts and "x <= 5" in facts

    def test_widen_drops_growing_bound(self):
        a = Zone.top(("x",))
        a.assume(cmp("<=", Name("x"), Const(3)))
        b = Zone.top(("x",))
        b.assume(cmp("<=", Name("x"), Const(4)))
        widened = a.widen(b)
        facts = [str(f) for f in widened.facts()]
        assert not any("x <=" in f for f in facts)

    def test_le_reflexive_and_ordered(self):
        a = Zone.top(("x",))
        a.assume(cmp("<=", Name("x"), Const(3)))
        assert a.le(a)
        top = Zone.top(("x",))
        assert a.le(top)
        assert not top.le(a)


class TestAssignments:
    def test_self_shift_preserves_relations(self):
        zone = Zone.top(("x", "y"))
        zone.assume(cmp("==", Name("x"), Name("y")))
        zone.assign("x", BinOp("+", Name("x"), Const(5)))
        facts = " && ".join(str(f) for f in zone.facts())
        # now x == y + 5
        assert "x <= (y + 5)" in facts

    def test_copy_assignment(self):
        zone = Zone.top(("x", "y"))
        zone.assume(cmp(">=", Name("y"), Const(2)))
        zone.assign("x", Name("y"))
        facts = [str(f) for f in zone.facts()]
        assert "x >= 2" in facts

    def test_unrecognized_assignment_forgets(self):
        zone = Zone.top(("x", "y"))
        zone.assume(cmp("==", Name("x"), Const(1)))
        zone.assign("x", BinOp("*", Name("y"), Name("y")))
        facts = [str(f) for f in zone.facts()]
        assert not any(f.startswith("x ") for f in facts)


class TestRandomizedSoundness:
    def test_random_constraint_sequences(self):
        """Random difference constraints: the closed zone must contain
        every integer point satisfying all recorded constraints."""
        rng = random.Random(9)
        for _ in range(30):
            names = ("a", "b")
            zone = Zone.top(names)
            recorded = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.randint(0, 2)
                c = rng.randint(-3, 3)
                if kind == 0:
                    pred = cmp("<=", Name("a"), Const(c))
                elif kind == 1:
                    pred = cmp(">=", Name("b"), Const(c))
                else:
                    pred = cmp("<=", Name("a"),
                               BinOp("+", Name("b"), Const(c)))
                recorded.append(pred)
                zone.assume(pred)
            zone.close()
            from repro.lang.interp import eval_pred

            for a in range(-5, 6):
                for b in range(-5, 6):
                    env = {"a": a, "b": b}
                    if all(eval_pred(p, env) for p in recorded):
                        assert not zone.bottom
                        for fact in zone.facts():
                            assert eval_pred(fact, env), (
                                recorded, fact, env
                            )


# ---------------------------------------------------------------------------
# the ``closed`` flag and incremental closure
# ---------------------------------------------------------------------------

NAMES = ("a", "b", "c")
bounds = st.one_of(st.none(), st.integers(-6, 6))


@st.composite
def dbms(draw, names=NAMES):
    """A raw (unclosed) zone with arbitrary bounds off the diagonal."""
    n = len(names) + 1
    m = [[0 if i == j else draw(bounds) for j in range(n)]
         for i in range(n)]
    return Zone(names, m)


def full_closure(zone: Zone) -> Zone:
    """A Floyd–Warshall closure of ``zone``'s matrix as it stands."""
    return Zone(zone.names, [row[:] for row in zone.m]).close()


def assert_closed_fixpoint(zone: Zone) -> None:
    assert zone.closed and not zone.bottom
    again = full_closure(zone)
    assert not again.bottom and again.m == zone.m


@st.composite
def closed_zones(draw):
    zone = draw(dbms()).close()
    assume(not zone.bottom)
    return zone


constraints = st.tuples(st.integers(0, len(NAMES)),
                        st.integers(0, len(NAMES)), st.integers(-6, 6))


class TestClosedFlag:
    @settings(max_examples=200, deadline=None)
    @given(closed_zones(), constraints)
    def test_incremental_closure_equals_full(self, zone, constraint):
        i, j, c = constraint
        raw = Zone(zone.names, [row[:] for row in zone.m])
        raw.add_constraint(i, j, c)
        expected = raw.close()
        zone.add_constraint(i, j, c)
        if expected.bottom:
            # an emptying constraint is left for the next full closure
            assert not zone.closed and zone.close().bottom
        else:
            assert zone.closed and zone.m == expected.m

    @settings(max_examples=100, deadline=None)
    @given(closed_zones(), closed_zones())
    def test_join_of_closed_zones_is_closed(self, a, b):
        assert_closed_fixpoint(a.join(b))

    @settings(max_examples=150, deadline=None)
    @given(dbms(), st.lists(st.tuples(st.integers(0, 5), constraints,
                                      st.sampled_from(NAMES)),
                            max_size=8))
    def test_every_closed_zone_is_a_closure_fixpoint(self, zone, ops):
        """Whatever sequence of operations made it, a zone flagged
        ``closed`` is its own full closure."""
        zones = [zone]
        for op, (i, j, c), name in ops:
            current = zones[-1]
            if op == 0:
                nxt = current.copy()
                nxt.add_constraint(i, j, c)
            elif op == 1:
                nxt = current.copy()
                nxt.forget(name)
            elif op == 2:
                nxt = current.copy()
                nxt.assign(name, BinOp("+", Name(name), Const(c)))
            elif op == 3:
                nxt = current.join(zones[i % len(zones)])
            elif op == 4:
                nxt = current.widen(zones[j % len(zones)])
            else:
                nxt = current.copy()
                nxt.assume(BoolOp("||", (cmp("<=", Name(name), Const(c)),
                                         cmp(">=", Name(name), Const(-c)))))
            zones.append(nxt)
        for z in zones:
            if z.closed and not z.bottom:
                assert_closed_fixpoint(z)

    def test_top_is_closed_and_widen_is_not(self):
        top = Zone.top(NAMES)
        assert_closed_fixpoint(top)
        assert not top.widen(top).closed
