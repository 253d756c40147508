"""Additional property tests for the Omega-test layer: unsat cores,
equality handling, and stress shapes beyond the basic differential test."""

from hypothesis import given, settings, strategies as st

from repro.lia import OmegaSolver, solve_literals, unsat_core
from repro.logic import LinTerm, Var, conj, eq, ge, le, ne
from .helpers import assert_model, brute_force_sat
from .strategies import linear_systems, literal_lists

x, y, z = Var("x"), Var("y"), Var("z")


@settings(max_examples=120, deadline=None)
@given(st.one_of(literal_lists(min_size=2, max_size=7), linear_systems()))
def test_verdicts_checked_against_models_cores_and_box(literals):
    """A model satisfies every atom, an UNSAT verdict comes with an
    unsatisfiable core, and a model in the radius-3 box means SAT.

    The dense ``linear_systems`` input makes the Fourier–Motzkin shadow
    and equality-substitution row batches do real work."""
    solver = OmegaSolver()
    model = solver.solve_literals(literals)
    if model is not None:
        for lit in literals:
            assert_model(lit, model)
        return
    assert not solver.is_sat_literals(solver.unsat_core(literals))
    phi = conj(*literals)
    witness = brute_force_sat(phi, sorted(phi.free_vars(), key=str), 3)
    assert witness is None, f"solver said UNSAT but {witness} satisfies {phi}"


@settings(max_examples=120, deadline=None)
@given(literal_lists(min_size=2, max_size=7))
def test_unsat_core_is_unsat_and_minimal(literals):
    solver = OmegaSolver()
    if solver.is_sat_literals(literals):
        return
    core = solver.unsat_core(literals)
    # the core itself must be unsatisfiable
    assert not solver.is_sat_literals(core)
    # and minimal: dropping any literal restores satisfiability
    for index in range(len(core)):
        reduced = core[:index] + core[index + 1:]
        assert solver.is_sat_literals(reduced), (
            f"core {core} not minimal: dropping {core[index]} stays unsat"
        )
    # and a subset of the input
    assert all(lit in literals for lit in core)


@settings(max_examples=100, deadline=None)
@given(literal_lists(min_size=1, max_size=5, with_dvd=False))
def test_adding_constraints_never_creates_models(literals):
    """Monotonicity: if the whole set is SAT, every subset is SAT."""
    solver = OmegaSolver()
    if not solver.is_sat_literals(literals):
        return
    for index in range(len(literals)):
        subset = literals[:index] + literals[index + 1:]
        assert solver.is_sat_literals(subset)


class TestEqualityChains:
    def test_long_substitution_chain(self):
        lits = [eq(x, LinTerm.var(y) + 1),
                eq(y, LinTerm.var(z) + 1),
                ge(z, 10)]
        model = solve_literals(lits)
        assert model is not None
        assert model[x] == model[z] + 2 >= 12

    def test_gcd_cascade(self):
        # 6x + 10y = 8 has solutions (gcd 2 | 8)
        model = solve_literals([eq(LinTerm.make([(x, 6), (y, 10)]), 8)])
        assert model is not None
        assert 6 * model[x] + 10 * model[y] == 8

    def test_three_variable_equality(self):
        # 3x + 5y + 7z = 1
        model = solve_literals(
            [eq(LinTerm.make([(x, 3), (y, 5), (z, 7)]), 1)]
        )
        assert model is not None
        assert 3 * model[x] + 5 * model[y] + 7 * model[z] == 1

    def test_inconsistent_equalities(self):
        lits = [eq(LinTerm.var(x, 2), LinTerm.var(y, 4) + 1)]
        assert solve_literals(lits) is None


class TestLazyDisequalities:
    def test_many_satisfiable_disequalities_fast(self):
        # 12 disequalities that the first model likely satisfies: the
        # lazy splitter must not branch 2^12 times
        lits = [ge(x, 0), le(x, 1000)]
        lits += [ne(x, 500 + i) for i in range(12)]
        model = solve_literals(lits)
        assert model is not None
        assert_model(conj(*lits), model)

    def test_dense_disequality_forcing(self):
        # x in [0,5] with 0..4 forbidden forces x = 5
        lits = [ge(x, 0), le(x, 5)] + [ne(x, i) for i in range(5)]
        model = solve_literals(lits)
        assert model is not None and model[x] == 5

    def test_disequalities_between_variables(self):
        lits = [ge(x, 0), le(x, 2), ge(y, 0), le(y, 2),
                ne(LinTerm.var(x) - LinTerm.var(y), 0),
                ne(LinTerm.var(x) - LinTerm.var(y), 1),
                ne(LinTerm.var(x) - LinTerm.var(y), -1)]
        model = solve_literals(lits)
        assert model is not None
        assert abs(model[x] - model[y]) == 2
