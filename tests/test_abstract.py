"""Tests for the interval and zone abstract interpreters and auto-annotation.

Soundness is the non-negotiable property: every inferred @post fact must
hold on every concrete execution — checked by running the interpreter.
"""

import random
from dataclasses import replace

import pytest

from repro.abstract import (
    Interval,
    Zone,
    annotate_program,
    infer_loop_posts,
)
from repro.abstract import annotate as annotate_module
from repro.lang import (
    Block,
    BoolOp,
    If,
    Program,
    While,
    eval_pred,
    parse_program,
    run_program,
)
from repro.suite import BENCHMARKS, DIAGNOSTICS, load_source

from .strategies import random_program


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


# ---------------------------------------------------------------------------
# annotate_program runs no domain when every loop already has a @post
# ---------------------------------------------------------------------------

def _always_infer(program, domains=("interval", "zone")):
    """The reference annotator: infer every loop's facts and rebuild the
    program, keeping manual posts, whether or not any loop lacks one."""
    posts = infer_loop_posts(program, domains)

    def rebuild(stmt):
        if isinstance(stmt, Block):
            return Block(tuple(rebuild(s) for s in stmt.body), stmt.span)
        if isinstance(stmt, If):
            return If(stmt.cond, rebuild(stmt.then_branch),
                      rebuild(stmt.else_branch), stmt.span)
        if isinstance(stmt, While):
            post = stmt.post
            if post is None:
                facts = posts.get(stmt.label, [])
                if facts:
                    post = facts[0] if len(facts) == 1 \
                        else BoolOp("&&", tuple(facts))
            return While(stmt.cond, rebuild(stmt.body), stmt.label, post,
                         stmt.span)
        return stmt

    return Program(name=program.name, params=program.params,
                   locals=program.locals, body=rebuild(program.body),
                   check=program.check, span=program.span,
                   source=program.source)


def _with_post(stmt, label, post):
    """``stmt`` with ``post`` on the loop labelled ``label``."""
    if isinstance(stmt, Block):
        return Block(tuple(_with_post(s, label, post) for s in stmt.body),
                     stmt.span)
    if isinstance(stmt, If):
        return If(stmt.cond, _with_post(stmt.then_branch, label, post),
                  _with_post(stmt.else_branch, label, post), stmt.span)
    if isinstance(stmt, While):
        return While(stmt.cond, _with_post(stmt.body, label, post),
                     stmt.label, post if stmt.label == label else stmt.post,
                     stmt.span)
    return stmt


def _first_post_by_hand(program):
    """``program`` with its first loop's inferred post as a manual
    ``@post`` (set on the AST: the grammar cannot spell the negative
    constants of some inferred facts)."""
    first = _always_infer(program).loops()[0]
    return replace(program,
                   body=_with_post(program.body, first.label, first.post))


def _printed(program):
    """Each loop's post as reports print it."""
    return [f"{loop.label}: {loop.post}" for loop in program.loops()]


def _random_programs():
    return [parse_program(random_program(seed)) for seed in range(40)]


def _assert_same_as_reference(program):
    annotated = annotate_program(program)
    reference = _always_infer(program)
    assert annotated == reference
    assert _printed(annotated) == _printed(reference)


NESTS = {
    "annotated loop around an unannotated one": '''
    program outer(unsigned n) {
      var i, j, t;
      while (i < n) {
        j = 0;
        while (j < i) { j = j + 1; t = t + 1; }
        i = i + 1;
      } @post(i >= n)
      assert(t >= 0);
    }
    ''',
    "unannotated loop around an annotated one": '''
    program inner(unsigned n) {
      var i, j, t;
      while (i < n) {
        j = 0;
        while (j < i) { j = j + 1; t = t + 1; } @post(j >= i)
        i = i + 1;
      }
      assert(t >= 0);
    }
    ''',
}


class TestAnnotatedProgramsSkipInference:
    @pytest.fixture
    def no_domain_runs(self, monkeypatch):
        def refuse(self, program):
            raise AssertionError("an abstract domain ran")

        monkeypatch.setattr(annotate_module._Runner, "run", refuse)

    def test_shipped_programs_are_returned_as_is(self, no_domain_runs):
        programs = [parse_program(load_source(bench))
                    for bench in BENCHMARKS + DIAGNOSTICS]
        loops = [loop for p in programs for loop in p.loops()]
        assert len(programs) == 14 and len(loops) == 15
        assert all(loop.post is not None for loop in loops)
        for program in programs:
            assert annotate_program(program) is program

    def test_unknown_domain_still_rejected(self, no_domain_runs):
        program = parse_program(load_source(BENCHMARKS[0]))
        with pytest.raises(ValueError,
                           match="unknown abstract domain 'octagon'"):
            annotate_program(program, ("octagon",))

    def test_random_programs_match_the_reference(self):
        programs = _random_programs()
        loops = [loop for p in programs for loop in p.loops()]
        assert len(loops) == 98
        assert all(loop.post is None for loop in loops)
        for program in programs:
            _assert_same_as_reference(program)

    def test_first_post_by_hand_matches_the_reference(self):
        for program in _random_programs():
            if not program.loops():
                continue
            by_hand = _first_post_by_hand(program)
            assert by_hand.loops()[0].post is not None
            _assert_same_as_reference(by_hand)

    @pytest.mark.parametrize("src", NESTS.values(), ids=list(NESTS))
    def test_nests_match_the_reference(self, src):
        program = parse_program(src)
        annotated = annotate_program(program)
        _assert_same_as_reference(program)
        manual = {loop.label: loop.post for loop in program.loops()}
        for loop in annotated.loops():
            assert loop.post is not None
            if manual[loop.label] is not None:
                assert loop.post == manual[loop.label]
