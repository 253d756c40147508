"""Tests for procedures and call inlining (the interprocedural extension)."""

import importlib.util
import itertools
from dataclasses import replace
from pathlib import Path

import pytest

from repro.abstract import annotate_program
from repro.api import InitialVerdict, Pipeline
from repro.cli import main
from repro.lang import (
    ParseError,
    While,
    eval_pred,
    parse_module,
    parse_program,
    render_program,
    run_program,
)


def _example(name):
    path = Path(__file__).resolve().parents[1] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The retry loop of ``examples/library_models.py``, which calls ``clamp``.
LIBRARY_MODELS = _example("library_models").SOURCE

CLAMP = """
proc clamp(lo, hi, v) {
  var r;
  r = v;
  if (r < lo) { r = lo; }
  if (r > hi) { r = hi; }
  return r;
}

program main(x) {
  var y;
  y = call clamp(0, 10, x);
  assert(y >= 0 && y <= 10);
}
"""


MISSING_RETURN = """
            proc nope(x) { var y; y = x; }
            program main(a) { var b; b = call nope(a); assert(b == a); }
            """

UNDEFINED = """
            program main(a) { var b; b = call ghost(a); assert(b == a); }
            """

ARITY_MISMATCH = """
            proc f(a, b, c) { return a; }
            program main(x) { var y; y = call f(x); assert(y == x); }
            """

RECURSIVE = """
            proc f(x) { var y; y = call f(x); return y; }
            program main(a) { var b; b = call f(a); assert(b == a); }
            """

MUTUALLY_RECURSIVE = """
            proc f(x) { var y; y = call g(x); return y; }
            proc g(x) { var y; y = call f(x); return y; }
            program main(a) { var b; b = call f(a); assert(b == a); }
            """

NESTED_CALLS = """
        proc double(v) { var r; r = v + v; return r; }
        proc quad(v) { var r; r = call double(v); r = call double(r);
                       return r; }
        program main(x) {
          var y;
          y = call quad(x);
          assert(y == 4 * x);
        }
        """

TWO_CALLS = """
        proc inc(v) { var r; r = v + 1; return r; }
        program main(x) {
          var a, b;
          a = call inc(x);
          b = call inc(a);
          assert(b == x + 2);
        }
        """

LOOP_TWICE = """
        proc sum_to(n) {
          var i, s;
          while (i < n) { i = i + 1; s = s + i; }
          return s;
        }
        program main(unsigned k) {
          var a, b;
          a = call sum_to(k);
          b = call sum_to(k);
          assert(a == b);
        }
        """

LOOP_ONCE = """
        proc count(n) {
          var i;
          while (i < n) { i = i + 1; }
          return i;
        }
        program main(unsigned k) {
          var c;
          c = call count(k);
          assert(c >= 0);
        }
        """

ASSERT_IN_PROC = """
proc f(x) {
  var y;
  y = x;
  assert(y == x);
  return y;
}
program main(a) { var b; b = call f(a); assert(b == a); }
"""

# the outer loop holds the inner one; main has a loop of its own
NESTED_LOOPS = """
proc f(n) {
  var i, j, s;
  while (i < n) {
    j = 0;
    while (j < n) { j = j + 1; s = s + 1; }
    i = i + 1;
  }
  return s;
}
program main(unsigned n) {
  var k, t;
  while (k < n) { k = k + 1; }
  t = call f(n);
  assert(t >= 0);
}
"""

# declares the name the first inlined copy of clamp's r would get
SHADOWED = """
proc clamp(lo, hi, v) {
  var r;
  r = v;
  if (r < lo) { r = lo; }
  if (r > hi) { r = hi; }
  return r;
}
program main(x) {
  var y, r$clamp1;
  r$clamp1 = 7;
  y = call clamp(0, 10, x);
  assert(y >= 0 && y <= 10 && r$clamp1 == 7);
}
"""

#: The ten sources above the assert one, in order.
SOURCES = (CLAMP, MISSING_RETURN, UNDEFINED, ARITY_MISMATCH, RECURSIVE,
           MUTUALLY_RECURSIVE, NESTED_CALLS, TWO_CALLS, LOOP_TWICE,
           LOOP_ONCE)
#: The sources that parse; a ``loop_`` one inlines a loop.
ROUND_TRIP = {"clamp": CLAMP, "nested_calls": NESTED_CALLS,
              "two_calls": TWO_CALLS, "loop_twice": LOOP_TWICE,
              "loop_once": LOOP_ONCE, "library_models": LIBRARY_MODELS}


class TestParsing:
    def test_module_structure(self):
        module = parse_module(CLAMP)
        assert len(module.procs) == 1
        proc = module.procs[0]
        assert proc.name == "clamp"
        assert proc.params == ("lo", "hi", "v")
        assert proc.locals == ("r",)

    def test_inlined_program_is_core_language(self):
        from repro.lang import CallStmt

        program = parse_program(CLAMP)
        assert not any(
            isinstance(s, CallStmt) for s in program.body.walk()
        )
        # the callee's local got a fresh name among the locals
        assert any("r$clamp" in name for name in program.locals)

    def test_missing_return_rejected(self):
        with pytest.raises(ParseError, match="return"):
            parse_program(MISSING_RETURN)

    def test_undefined_procedure_rejected(self):
        with pytest.raises(ParseError, match="undefined procedure"):
            parse_program(UNDEFINED)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError, match="expects 3 arguments"):
            parse_program(ARITY_MISMATCH)

    def test_recursion_rejected(self):
        with pytest.raises(ParseError, match="recursive"):
            parse_program(RECURSIVE)

    def test_mutual_recursion_rejected(self):
        with pytest.raises(ParseError, match="recursive"):
            parse_program(MUTUALLY_RECURSIVE)

    def test_assert_in_procedure_rejected_at_the_assert(self):
        with pytest.raises(ParseError, match="final statement") as info:
            parse_program(ASSERT_IN_PROC)
        assert info.value.span.line == 5

    def test_assert_in_procedure_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.err"
        path.write_text(ASSERT_IN_PROC)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("analyze: assert(...) is only allowed")
        assert "^" in err


class TestSemantics:
    def test_clamp_execution(self):
        program = parse_program(CLAMP)
        for x, expected in [(-5, 0), (3, 3), (42, 10)]:
            result = run_program(program, [x])
            assert result.ok
            assert result.env["y"] == expected

    def test_nested_calls(self):
        program = parse_program(NESTED_CALLS)
        for x in (-3, 0, 7):
            assert run_program(program, [x]).ok

    def test_two_calls_get_distinct_locals(self):
        program = parse_program(TWO_CALLS)
        assert run_program(program, [5]).ok
        inc_locals = [n for n in program.locals if "$inc" in n]
        assert len(set(inc_locals)) == len(inc_locals) >= 4

    def test_loop_in_procedure_relabeled(self):
        program = parse_program(LOOP_TWICE)
        labels = [l.label for l in program.loops()]
        assert len(labels) == len(set(labels)) == 2
        assert run_program(program, [4]).ok

    def test_enclosing_loop_labelled_before_its_body(self):
        program = parse_program(NESTED_LOOPS)
        assert [loop.label for loop in program.loops()] == [3, 4, 5]

    def test_inferred_posts_hold_at_their_own_loop_exits(self):
        program = annotate_program(parse_program(NESTED_LOOPS))
        checked = 0
        for n in range(5):
            result = run_program(program, [n])
            assert result.ok
            for loop in program.loops():
                for env in result.loop_exit_envs.get(loop.label, []):
                    assert eval_pred(loop.post, env), (n, loop.label, env)
                    checked += 1
        assert checked == 20

    def test_declared_names_are_never_reused(self):
        program = parse_program(SHADOWED)
        assert len(set(program.locals)) == len(program.locals)
        assert "r$clamp1" in program.locals
        for x in (-5, 3, 42):
            assert run_program(program, [x]).ok

    def test_inlined_names_never_collide(self):
        # f1's first call and f's eleventh would both name x "x$f11"
        calls = " ".join(["b = call f(a);"] * 10)
        program = parse_program(f"""
        proc f1(x) {{ var r; r = x + 100; return r; }}
        proc f(x) {{ var r; r = x; return r; }}
        program main(a) {{ var b, c; c = call f1(a); {calls} assert(c > a); }}
        """)
        assert len(set(program.locals)) == len(program.locals) == 24


class TestAnalysisIntegration:
    def test_analysis_sees_through_calls(self):
        outcome = Pipeline().analyze(CLAMP)
        # clamp's postcondition is fully visible after inlining:
        # loop-free, so the analysis is exact and verifies outright
        assert outcome.verdict is InitialVerdict.VERIFIED

    def test_procedure_with_loop_analyzed(self):
        outcome = Pipeline().analyze(LOOP_ONCE)
        assert outcome.verdict is InitialVerdict.VERIFIED


def _in_source_order(program):
    """``program`` with its loops labelled 1, 2, ... in source order, as
    the parser labels them: inlined loops are numbered after every loop
    the source spells out, and rendering shows no labels."""
    labels = itertools.count(1)

    def relabel(stmt):
        if isinstance(stmt, While):
            stmt = replace(stmt, label=next(labels))
        return stmt.map_blocks(lambda b: b.map(relabel))

    return replace(program, body=program.body.map(relabel))


class TestRendering:
    @pytest.mark.parametrize("name", sorted(ROUND_TRIP))
    def test_inlined_program_renders_to_source_that_parses_back(self,
                                                                name):
        program = parse_program(ROUND_TRIP[name])
        reparsed = parse_program(render_program(program))
        if name.startswith("loop_"):
            program = _in_source_order(program)
        assert reparsed == program

    def test_program_with_a_call_repairs(self):
        result = Pipeline().repair(LIBRARY_MODELS)
        assert result.verified_count >= 1
        assert result.exit_status == 0
