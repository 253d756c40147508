"""Tests for the CDCL SAT solver, including random-CNF differential tests
against exhaustive enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import SatSolver, cdcl, luby


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(
            any(
                assignment[abs(lit)] == (lit > 0) for lit in clause
            )
            for clause in clauses
        ):
            return assignment
    return None


def make_solver(num_vars, clauses):
    solver = SatSolver()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


class TestLuby:
    def test_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(15)] == expected


class TestBasics:
    def test_empty_formula_sat(self):
        assert SatSolver().solve()

    def test_single_unit(self):
        solver = make_solver(1, [[1]])
        assert solver.solve()
        assert solver.model()[1] is True

    def test_contradictory_units(self):
        solver = make_solver(1, [[1], [-1]])
        assert not solver.solve()

    def test_simple_implication_chain(self):
        clauses = [[-1, 2], [-2, 3], [-3, 4], [1]]
        solver = make_solver(4, clauses)
        assert solver.solve()
        model = solver.model()
        assert model[1] and model[2] and model[3] and model[4]

    def test_tautology_ignored(self):
        solver = make_solver(2, [[1, -1], [2]])
        assert solver.solve()
        assert solver.model()[2]

    def test_duplicate_literals_collapse(self):
        solver = make_solver(1, [[1, 1, 1]])
        assert solver.solve()

    def test_out_of_range_literal(self):
        solver = SatSolver()
        solver.ensure_vars(1)
        with pytest.raises(ValueError):
            solver.add_clause([2])
        with pytest.raises(ValueError):
            solver.add_clause([0])


class TestPigeonhole:
    def _pigeonhole(self, holes):
        """holes+1 pigeons into `holes` holes: classic small UNSAT family."""
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1
        clauses = []
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return pigeons * holes, clauses

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_unsat(self, holes):
        num_vars, clauses = self._pigeonhole(holes)
        solver = make_solver(num_vars, clauses)
        assert not solver.solve()

    def test_exact_fit_is_sat(self):
        # 3 pigeons, 3 holes, at-most-one per hole
        holes = 3
        var = lambda p, h: p * holes + h + 1
        clauses = [[var(p, h) for h in range(holes)] for p in range(3)]
        for h in range(holes):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    clauses.append([-var(p1, h), -var(p2, h)])
        solver = make_solver(9, clauses)
        assert solver.solve()


class TestIncremental:
    def test_add_clause_after_solve(self):
        solver = make_solver(2, [[1, 2]])
        assert solver.solve()
        solver.add_clause([-1])
        assert solver.solve()
        assert solver.model()[2]
        solver.add_clause([-2])
        assert not solver.solve()

    def test_blocking_models_enumerates_all(self):
        solver = make_solver(3, [[1, 2, 3]])
        count = 0
        while solver.solve():
            model = solver.model()
            count += 1
            assert count <= 7
            solver.add_clause(
                [-(v) if value else v for v, value in model.items()]
            )
        assert count == 7


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_cnf_matches_brute_force(data):
    num_vars = data.draw(st.integers(1, 8))
    num_clauses = data.draw(st.integers(1, 30))
    clauses = []
    for _ in range(num_clauses):
        width = data.draw(st.integers(1, 4))
        clause = [
            data.draw(st.integers(1, num_vars))
            * (1 if data.draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        clauses.append(clause)
    solver = make_solver(num_vars, clauses)
    expected = brute_force_sat(num_vars, clauses)
    result = solver.solve()
    assert result == (expected is not None)
    if result:
        model = solver.model()
        assert all(
            any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
            for clause in clauses
        )


def test_random_3sat_stress():
    rng = random.Random(7)
    for trial in range(40):
        num_vars = rng.randint(5, 14)
        num_clauses = int(num_vars * rng.uniform(2.0, 5.0))
        clauses = [
            [
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(3)
            ]
            for _ in range(num_clauses)
        ]
        solver = make_solver(num_vars, clauses)
        expected = brute_force_sat(num_vars, clauses) is not None
        assert solver.solve() == expected, (trial, clauses)


# every setting of the search constants must preserve verdicts: they
# tune the search, never the answer.  REDUCE_INTERVAL=1 forces a
# database reduction after every conflict, so the reduction and
# arena-compaction paths run constantly instead of once per 2000
# conflicts; LUBY_UNIT=1 restarts as aggressively as possible.
_KNOB_VARIANTS = [
    dict(LUBY_UNIT=1, VAR_DECAY=0.75, REDUCE_INTERVAL=1,
         REDUCE_KEEP_LBD=0),
    dict(LUBY_UNIT=2, VAR_DECAY=1.0, REDUCE_INTERVAL=3,
         REDUCE_KEEP_LBD=2),
    dict(LUBY_UNIT=512, VAR_DECAY=0.99, REDUCE_INTERVAL=0),  # no reduction
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_knob_variants_match_brute_force(data):
    from .strategies import cnf_instances

    num_vars, clauses = data.draw(cnf_instances())
    expected = brute_force_sat(num_vars, clauses) is not None
    for knobs in _KNOB_VARIANTS:
        # a context, not the fixture: hypothesis reruns the body
        with pytest.MonkeyPatch.context() as patch:
            for name, value in knobs.items():
                patch.setattr(cdcl, name, value)
            solver = make_solver(num_vars, clauses)
            result = solver.solve()
        assert result == expected, (knobs, clauses)
        if result:
            model = solver.model()
            assert all(
                any(model.get(abs(lit), False) == (lit > 0)
                    for lit in clause)
                for clause in clauses
            ), (knobs, clauses)


def test_reduction_exercised_on_enumeration(monkeypatch):
    """Clause-DB reduction actually fires (and stays sound) on a
    blocking-clause enumeration that learns far more than it keeps."""
    monkeypatch.setattr(cdcl, "REDUCE_INTERVAL", 10)
    monkeypatch.setattr(cdcl, "REDUCE_KEEP_LBD", 1)
    solver = SatSolver()
    groups, size = 6, 3
    n = groups * size
    solver.ensure_vars(n)
    var = lambda g, i: g * size + i + 1
    for g in range(groups):
        solver.add_clause([var(g, i) for i in range(size)])
        for i in range(size):
            for j in range(i + 1, size):
                solver.add_clause([-var(g, i), -var(g, j)])
    count = 0
    while solver.solve():
        model = solver.model()
        count += 1
        solver.add_clause(
            [-v if model[v] else v for v in range(1, n + 1)]
        )
        assert count <= 3 ** groups
    assert count == 3 ** groups  # exactly one pick per group, all found
