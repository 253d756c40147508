"""Tests for the interval and zone abstract interpreters and auto-annotation.

Soundness is the non-negotiable property: every inferred @post fact must
hold on every concrete execution — checked by running the interpreter.
"""

import random

import pytest

from repro.abstract import (
    Interval,
    Zone,
    annotate_program,
    infer_loop_posts,
)
from repro.lang import eval_pred, parse_program, run_program


class TestIntervalLattice:
    def test_join(self):
        a = Interval(0, 5)
        b = Interval(3, None)
        assert a.join(b) == Interval(0, None)

    def test_meet(self):
        assert Interval(0, 10).meet(Interval(5, 20)) == Interval(5, 10)

    def test_bottom(self):
        assert Interval(3, 2).is_bottom
        assert Interval(0, 10).meet(Interval(11, 20)).is_bottom

    def test_widen_unstable_bounds(self):
        assert Interval(0, 5).widen(Interval(0, 6)) == Interval(0, None)
        assert Interval(0, 5).widen(Interval(-1, 5)) == Interval(None, 5)
        assert Interval(0, 5).widen(Interval(0, 5)) == Interval(0, 5)

    def test_arithmetic(self):
        assert Interval(1, 2).add(Interval(10, 20)) == Interval(11, 22)
        assert Interval(1, 2).sub(Interval(0, 1)) == Interval(0, 2)
        assert Interval(-2, 3).mul(Interval(4, 5)) == Interval(-10, 15)

    def test_mul_preserves_nonnegativity_when_unbounded(self):
        result = Interval(0, None).mul(Interval(0, None))
        assert result.lo == 0 and result.hi is None


class TestZone:
    def test_assign_constant(self):
        zone = Zone.top(("x", "y"))
        from repro.lang.ast import Const

        zone.assign("x", Const(5))
        facts = [str(f) for f in zone.facts()]
        assert "x <= 5" in facts and "x >= 5" in facts

    def test_assign_shift(self):
        zone = Zone.top(("x",))
        from repro.lang.ast import BinOp, Const, Name

        zone.assign("x", Const(3))
        zone.assign("x", BinOp("+", Name("x"), Const(2)))
        facts = [str(f) for f in zone.facts()]
        assert "x <= 5" in facts and "x >= 5" in facts

    def test_difference_tracking(self):
        zone = Zone.top(("x", "y"))
        from repro.lang.ast import BinOp, Const, Name, Cmp

        zone.assume(Cmp("<=", Name("x"), Name("y")))
        zone.assign("x", BinOp("+", Name("x"), Const(1)))
        # now x <= y + 1
        facts = [str(f) for f in zone.facts()]
        assert any("x <= (y + 1)" in f for f in facts)

    def test_infeasible_detected(self):
        zone = Zone.top(("x",))
        from repro.lang.ast import Cmp, Const, Name

        zone.assume(Cmp(">=", Name("x"), Const(5)))
        zone.assume(Cmp("<=", Name("x"), Const(4)))
        zone.close()
        assert zone.bottom


SOUNDNESS_PROGRAMS = [
    '''
    program sum(unsigned n) {
      var i, j;
      while (i <= n) { i = i + 1; j = j + i; }
      assert(j >= 0);
    }
    ''',
    '''
    program countdown(unsigned n) {
      var i;
      i = n;
      while (i > 0) { i = i - 1; }
      assert(i == 0);
    }
    ''',
    '''
    program nested(unsigned n) {
      var i, j, t;
      while (i < n) {
        j = 0;
        while (j < i) { j = j + 1; t = t + 1; }
        i = i + 1;
      }
      assert(t >= 0);
    }
    ''',
    '''
    program branchy(a, unsigned n) {
      var i, s;
      while (i < n) {
        if (a > 0) { s = s + 1; } else { s = s + 2; }
        i = i + 1;
      }
      assert(s >= 0);
    }
    ''',
]


class TestSoundness:
    @pytest.mark.parametrize("src", SOUNDNESS_PROGRAMS)
    @pytest.mark.parametrize("domains", [("interval",), ("zone",),
                                         ("zone", "interval"),
                                         ("interval", "zone")])
    def test_posts_hold_on_executions(self, src, domains):
        program = parse_program(src)
        annotated = annotate_program(program, domains)
        rng = random.Random(11)
        for trial in range(40):
            inputs = {}
            for p in program.params:
                low = 0 if p.unsigned else -6
                inputs[p.name] = rng.randint(low, 6)
            result = run_program(annotated, inputs)
            for loop in annotated.loops():
                if loop.post is None:
                    continue
                for env in result.loop_exit_envs.get(loop.label, []):
                    assert eval_pred(loop.post, env), (
                        f"unsound post {loop.post} at exit env {env} "
                        f"inputs {inputs} domains {domains}"
                    )


class TestAnnotationQuality:
    def test_zone_finds_relational_exit_fact(self):
        """The paper's Section 1.1 fact i > n must come out of zones."""
        program = parse_program('''
        program p(unsigned n) {
          var i, j;
          while (i <= n) { i = i + 1; j = j + i; }
          assert(j >= 0);
        }
        ''')
        posts = infer_loop_posts(program, ("zone",))
        rendered = [str(f) for f in posts[1]]
        assert any("n <= (i + -1)" in f or "n <= (i - 1)" in f
                   for f in rendered), rendered

    def test_interval_finds_bounds(self):
        program = parse_program('''
        program p(unsigned n) {
          var i, j;
          while (i <= n) { i = i + 1; j = j + i; }
          assert(j >= 0);
        }
        ''')
        posts = infer_loop_posts(program, ("interval",))
        rendered = [str(f) for f in posts[1]]
        assert "j >= 0" in rendered
        assert "i >= 1" in rendered

    def test_manual_annotation_preserved(self):
        program = parse_program('''
        program p(unsigned n) {
          var i;
          while (i < n) { i = i + 1; } @post(i >= 0)
          assert(i >= 0);
        }
        ''')
        annotated = annotate_program(program)
        assert str(annotated.loops()[0].post) == "i >= 0"

    def test_unknown_domain_rejected(self):
        program = parse_program(
            "program p(x) { assert(x == x); }"
        )
        with pytest.raises(ValueError):
            infer_loop_posts(program, ("polyhedra",))

    def test_havoc_handled(self):
        program = parse_program('''
        program p(unsigned n) {
          var i, x;
          while (i < n) {
            havoc x @assume(x >= 0 && x <= 9);
            i = i + 1;
          }
          assert(i >= 0);
        }
        ''')
        annotated = annotate_program(program, ("interval",))
        post = annotated.loops()[0].post
        assert post is not None
        # x's assumed bounds must survive into the post (or x be absent)
        rng = random.Random(3)
        for _ in range(20):
            result = run_program(annotated, {"n": rng.randint(0, 6)})
            for env in result.loop_exit_envs.get(1, []):
                assert eval_pred(post, env)
