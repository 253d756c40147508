"""Tests for the concrete interpreter (Figure 1 semantics)."""

import random

import pytest

from repro.lang import (
    FixedHavocPolicy,
    HavocPolicy,
    Interpreter,
    OutOfFuel,
    parse_program,
    run_program,
)


def make(src):
    return parse_program(src)


class TestBasics:
    def test_locals_start_at_zero(self):
        p = make("program p(x) { var y; assert(y == 0); }")
        assert run_program(p, [99]).ok

    def test_inputs_bound(self):
        p = make("program p(x, y) { assert(x + y == 7); }")
        assert run_program(p, [3, 4]).ok
        assert not run_program(p, [3, 5]).ok
        assert run_program(p, {"x": 2, "y": 5}).ok

    def test_unsigned_rejects_negative(self):
        p = make("program p(unsigned n) { assert(n >= 0); }")
        with pytest.raises(ValueError):
            run_program(p, [-1])

    def test_missing_input(self):
        p = make("program p(x) { assert(x == 0); }")
        with pytest.raises(ValueError):
            run_program(p, {})
        with pytest.raises(ValueError):
            run_program(p, [1, 2])

    def test_if_else(self):
        p = make('''
        program p(x) {
          var y;
          if (x > 0) { y = 1; } else { y = -1; }
          assert(y * x >= 0);
        }
        ''')
        assert run_program(p, [5]).ok
        assert run_program(p, [-5]).ok
        assert run_program(p, [0]).ok  # else branch: y=-1, y*x = 0

    def test_if_else_zero_case(self):
        p = make('''
        program p(x) {
          var y;
          if (x > 0) { y = 1; } else { y = -1; }
          assert(y * x > 0);
        }
        ''')
        assert not run_program(p, [0]).ok

    def test_loop_sum(self):
        p = make('''
        program p(unsigned n) {
          var i, s;
          while (i < n) { i = i + 1; s = s + i; }
          assert(2 * s == n * n + n);
        }
        ''')
        for n in range(8):
            assert run_program(p, [n]).ok

    def test_loop_exit_env_recorded(self):
        p = make('''
        program p(unsigned n) {
          var i;
          while (i < n) { i = i + 1; }
          assert(i == n);
        }
        ''')
        result = run_program(p, [4])
        assert result.ok
        assert result.loop_exit_envs[1][-1]["i"] == 4

    def test_nonlinear_site_recorded(self):
        p = make('''
        program p(x) {
          var y;
          y = x * x;
          assert(y >= 0);
        }
        ''')
        result = run_program(p, [7])
        assert result.ok
        assert 49 in result.site_values.values()

    def test_fuel_exhaustion(self):
        p = make('''
        program p(x) {
          var i;
          while (i >= 0) { i = i + 1; }
          assert(i < 0);
        }
        ''')
        with pytest.raises(OutOfFuel):
            Interpreter(fuel=1000).run(p, [0])


class TestHavoc:
    def test_fixed_policy(self):
        p = make('''
        program p(x) {
          var y;
          havoc y;
          assert(y == 42);
        }
        ''')
        result = Interpreter(
            havoc_policy=FixedHavocPolicy([42])
        ).run(p, [0])
        assert result.ok
        assert result.havoc_values == [42]

    def test_assume_respected(self):
        p = make('''
        program p(x) {
          var y;
          havoc y @assume(y >= 10 && y <= 20);
          assert(y >= 10);
        }
        ''')
        for seed in range(5):
            import random

            from repro.lang import HavocPolicy

            result = Interpreter(
                havoc_policy=HavocPolicy(random.Random(seed))
            ).run(p, [0])
            assert result.ok
            assert 10 <= result.env["y"] <= 20

    def test_fixed_policy_rejects_violating_value(self):
        p = make('''
        program p(x) {
          var y;
          havoc y @assume(y > 100);
          assert(y > 100);
        }
        ''')
        # 5 violates the assumption; the policy must repair it
        result = Interpreter(
            havoc_policy=FixedHavocPolicy([5])
        ).run(p, [0])
        assert result.ok

    def test_narrow_assumption_via_solver(self):
        # random probing in [-64, 64] cannot hit y == 1000000
        p = make('''
        program p(x) {
          var y;
          havoc y @assume(y == 1000000);
          assert(y == 1000000);
        }
        ''')
        assert run_program(p, [0]).ok


class TestCompiledExecution:
    """The compiled executor keeps the walker's observable behaviour."""

    COUNT = '''
    program p(unsigned n) {
      var i;
      i = 0;
      while (i < n) { i = i + 1; skip; }
      assert(i == n);
    }
    '''

    #: the walker's OutOfFuel message for every budget short of the run
    EXHAUSTED = {
        1: "execution exceeded 1 steps at line 5, column 7",
        2: "loop at line 5, column 7 exceeded 2 steps",
        3: "execution exceeded 3 steps at line 5, column 23",
        4: "execution exceeded 4 steps at line 5, column 34",
        5: "loop at line 5, column 7 exceeded 5 steps",
        6: "execution exceeded 6 steps at line 5, column 23",
        7: "execution exceeded 7 steps at line 5, column 34",
        8: "loop at line 5, column 7 exceeded 8 steps",
        9: "execution exceeded 9 steps at line 5, column 23",
        10: "execution exceeded 10 steps at line 5, column 34",
    }

    def test_steps_and_fuel_boundary(self):
        p = make(self.COUNT)
        # i = 0 (1) + while (1) + 3 iterations x (1 + 2 statements)
        assert Interpreter().run(p, [3]).steps == 11
        assert Interpreter(fuel=11).run(p, [3]).ok
        for fuel, message in self.EXHAUSTED.items():
            with pytest.raises(OutOfFuel) as err:
                Interpreter(fuel=fuel).run(p, [3])
            assert str(err.value) == message

    def test_fuel_is_per_run_on_a_compiled_program(self):
        p = make(self.COUNT)
        interp = Interpreter(fuel=11)
        for _ in range(3):
            assert interp.run(p, [3]).steps == 11
        with pytest.raises(OutOfFuel):
            interp.run(p, [4])

    def test_unsigned_checked_on_every_run(self):
        p = make("program p(unsigned n) { assert(n >= 0); }")
        interp = Interpreter()
        assert interp.run(p, [2]).ok
        with pytest.raises(ValueError, match="unsigned parameter 'n'"):
            interp.run(p, [-1])

    HAVOCS = '''
    program p(x) {
      var y, z;
      havoc y;
      havoc z @assume(z >= x && z <= x + 3);
      assert(z >= x);
    }
    '''

    def test_fixed_policy_through_compiled_havocs(self):
        p = make(self.HAVOCS)
        interp = Interpreter(havoc_policy=FixedHavocPolicy([5, 2, 9, 1]))
        assert interp.run(p, [0]).havoc_values == [5, 2]
        assert interp.run(p, [0]).havoc_values == [9, 1]

    def test_subclassed_policy_is_honoured(self):
        class Counting(HavocPolicy):
            def __init__(self):
                super().__init__()
                self.seen = []

            def resolve(self, stmt, env):
                self.seen.append((stmt.target, dict(env)))
                return env["x"] + len(self.seen)

        p = make(self.HAVOCS)
        policy = Counting()
        interp = Interpreter(havoc_policy=policy)
        for _ in range(2):
            result = interp.run(p, [10])
        assert result.havoc_values == [13, 14]
        assert [target for target, _ in policy.seen] == ["y", "z"] * 2
        assert policy.seen[1][1] == {"x": 10, "y": 11, "z": 0}

    def test_reseeded_rng_matches_fresh_random(self):
        p = make(self.HAVOCS)
        rng = random.Random()
        interp = Interpreter(havoc_policy=HavocPolicy(rng))
        for seed in range(6):
            rng.seed(seed)
            got = interp.run(p, [seed]).havoc_values
            fresh = Interpreter(
                havoc_policy=HavocPolicy(random.Random(seed))
            ).run(p, [seed]).havoc_values
            # the stream, drawn by hand: one randint for y, then
            # randints until one satisfies z's assumption
            draw = random.Random(seed)
            y = draw.randint(-64, 64)
            z = draw.randint(-64, 64)
            while not seed <= z <= seed + 3:
                z = draw.randint(-64, 64)
            assert got == fresh == [y, z]

    def test_smt_fallback_solved_once_per_context(self, monkeypatch):
        p = make('''
        program p(x) {
          var y;
          havoc y @assume(y == x + 1000);
          assert(y > x);
        }
        ''')
        solves = []
        original = HavocPolicy._solve

        def counting(self, stmt, env):
            solves.append(env["x"])
            return original(self, stmt, env)

        monkeypatch.setattr(HavocPolicy, "_solve", counting)
        interp = Interpreter()
        assert [interp.run(p, [x]).env["y"] for x in (0, 0, 1, 0)] == \
            [1000, 1000, 1001, 1000]
        assert solves == [0, 1]
