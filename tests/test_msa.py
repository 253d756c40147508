"""Tests for minimum satisfying assignments."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.logic import (
    LinTerm,
    Var,
    VarKind,
    conj,
    disj,
    eq,
    ge,
    gt,
    le,
    lt,
    parse_formula,
)
from repro.msa import MsaSolver, find_msa
from repro.qe import eliminate_forall, project
from repro.smt import SmtSolver
from .strategies import formulas

x, y, z = Var("x"), Var("y"), Var("z")
UNIT = {x: 1, y: 1, z: 1}


def unit_costs(v):
    return 1


@st.composite
def msa_problems(draw, max_depth: int):
    """``(phi, restrict, consistency)``: ``restrict`` is ``None`` or a
    proper subset of phi's free variables, with 0-2 side formulas."""
    phi = draw(formulas(max_depth=max_depth, with_dvd=False))
    free = sorted(phi.free_vars(), key=lambda v: v.name)
    restrict = None
    if free and draw(st.booleans()):
        outside = draw(st.lists(st.sampled_from(free), unique=True,
                                min_size=1))
        restrict = [v for v in free if v not in outside]
    consistency = draw(st.lists(formulas(max_depth=1, with_dvd=False),
                                max_size=2))
    return phi, restrict, consistency


class TestBasics:
    def test_valid_formula_needs_nothing(self):
        result = find_msa(ge(LinTerm.var(x) + 1, LinTerm.var(x)), unit_costs)
        assert result is not None
        assert result.cost == 0
        assert result.assignment == ()

    def test_unsat_formula_has_no_msa(self):
        phi = conj(ge(x, 1), le(x, 0))
        assert find_msa(phi, unit_costs) is None

    def test_single_variable(self):
        # x >= 5 requires assigning x
        result = find_msa(ge(x, 5), unit_costs)
        assert result is not None
        assert result.variables == {x}
        assert result.as_dict()[x] >= 5

    def test_one_of_two_suffices(self):
        # x >= 0 || y >= 0: either variable alone suffices
        result = find_msa(disj(ge(x, 0), ge(y, 0)), unit_costs)
        assert result is not None
        assert result.cost == 1

    def test_both_needed(self):
        phi = conj(ge(x, 0), ge(y, 0))
        result = find_msa(phi, unit_costs)
        assert result is not None
        assert result.cost == 2
        assert result.variables == {x, y}

    def test_costs_steer_choice(self):
        phi = disj(ge(x, 0), ge(y, 0))
        result = find_msa(phi, {x: 10, y: 1, z: 1})
        assert result is not None
        assert result.variables == {y}

    def test_implication_prefers_antecedent_falsification(self):
        # (x >= 0) -> (y >= 0): assigning x = -1 makes it valid at cost 1
        phi = ge(x, 0).implies(ge(y, 0))
        result = find_msa(phi, unit_costs)
        assert result is not None
        assert result.cost == 1


class TestConsistency:
    def test_consistency_blocks_cheap_assignment(self):
        # (x >= 0) -> (y >= 0) again, but assignments must stay consistent
        # with x >= 5, ruling out the "falsify the antecedent" trick.
        phi = ge(x, 0).implies(ge(y, 0))
        result = find_msa(phi, unit_costs, consistency=[ge(x, 5)])
        assert result is not None
        sigma = result.as_formula()
        solver = SmtSolver()
        assert solver.is_sat(conj(sigma, ge(x, 5)))
        assert solver.is_valid(phi.substitute(
            {v: LinTerm.constant(c) for v, c in result.assignment}
        ))

    def test_each_consistency_formula_checked_separately(self):
        phi = disj(eq(x, 0), eq(x, 1))
        # witnesses x=0 and x=1 are mutually exclusive but individually fine
        result = find_msa(
            phi, unit_costs, consistency=[eq(x, 0), eq(x, 1)]
        )
        # no single assignment of x is consistent with both
        assert result is None

    def test_inconsistent_side_formula(self):
        result = find_msa(
            ge(x, 0), unit_costs,
            consistency=[conj(ge(x, 1), le(x, 0))],
        )
        assert result is None


class TestDefinition:
    """Every MSA must satisfy Definition 5 exactly."""

    @settings(max_examples=40, deadline=None)
    @given(msa_problems(max_depth=2))
    def test_msa_satisfies_definition(self, problem):
        phi, restrict, consistency = problem
        solver = SmtSolver()
        result = MsaSolver().find(phi, unit_costs, consistency,
                                  restrict=restrict)
        if result is None:
            if restrict is None and not consistency:
                assert not solver.is_sat(phi)
            return
        if restrict is not None:
            assert result.variables <= set(restrict)
        sub = {v: LinTerm.constant(c) for v, c in result.assignment}
        assert solver.is_valid(phi.substitute(sub))
        for psi in consistency:
            assert solver.is_sat(conj(result.as_formula(), psi))

    @settings(max_examples=25, deadline=None)
    @given(msa_problems(max_depth=2))
    def test_strategies_agree_on_cost(self, problem):
        phi, restrict, consistency = problem
        msa = MsaSolver()
        a, b = (msa.find(phi, unit_costs, consistency, strategy=strategy,
                         restrict=restrict)
                for strategy in ("subsets", "branch_bound"))
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert a.cost == b.cost

    @settings(max_examples=20, deadline=None)
    @given(msa_problems(max_depth=1))
    def test_minimality_against_exhaustive(self, problem):
        """No strictly cheaper variable subset may be feasible, and none
        at all when there is no MSA (each subset checked from scratch)."""
        phi, restrict, consistency = problem
        solver = SmtSolver()
        result = MsaSolver().find(phi, unit_costs, consistency,
                                  restrict=restrict)
        variables = sorted(phi.free_vars() if restrict is None
                           else restrict, key=lambda v: v.name)
        bound = len(variables) + 1 if result is None else result.cost
        for mask in range(1 << len(variables)):
            include = [variables[i] for i in range(len(variables))
                       if mask >> i & 1]
            if len(include) >= bound:
                continue
            keep = set(include)
            residual = eliminate_forall(
                [v for v in phi.free_vars() if v not in keep], phi)
            projections = [project(psi, keep) for psi in consistency]
            assert not solver.is_sat(conj(residual, *projections)), (
                f"subset {include} (cost {len(include)}) beats claimed "
                f"MSA {result} for {phi} under {consistency}"
            )


class TestBranchAndBound:
    def test_prune_quantifies_variables_outside_the_search_set(self):
        """``forall x. (x = y or o >= 5)`` is satisfiable (``o >= 5``), but
        with ``o`` — outside the search set — quantified as well it is not,
        so excluding ``x`` cuts its whole subtree."""
        o = Var("o")
        phi = disj(eq(x, y), ge(o, 5))
        costs = {x: 2, y: 1}
        subsets = MsaSolver().find(phi, costs, strategy="subsets",
                                   restrict=[x, y])
        obs.reset()
        obs.enable()
        try:
            with obs.capture() as cap:
                branch_bound = MsaSolver().find(phi, costs,
                                                strategy="branch_bound",
                                                restrict=[x, y])
        finally:
            obs.disable()
            obs.reset()
        for result in (subsets, branch_bound):
            assert result is not None
            assert result.variables == {x, y}
            assert result.cost == 3
        counters = cap.snapshot["counters"]
        assert counters.get("msa.subtree_prunes") == 1
        assert counters.get("msa.candidates") == 2


class TestPaperExample:
    def test_example2_msa_is_alpha_j(self):
        """Example 2: the MSA of I => phi consistent with I assigns only
        alpha_j (cost 1 under Pi_p), with value 0 admissible."""
        kinds = {
            "ai": VarKind.ABSTRACTION, "aj": VarKind.ABSTRACTION,
            "n1": VarKind.INPUT, "n2": VarKind.INPUT,
        }
        inv = parse_formula("ai >= 0 && ai > n2", kinds)
        phi = parse_formula(
            "(n2 + ai + aj > 2*n2 && n2 > 0 && n1 > 0) ||"
            " (1 + ai + aj > 2*n2 && n2 <= 0 && n1 > 0) ||"
            " (2*n2 + 1 > 2*n2 && n1 <= 0)",
            kinds,
        )
        imp = inv.implies(phi)
        # Pi_p: abstraction vars cost 1, inputs cost |vars| = 4
        costs = {v: (1 if v.is_abstraction else 4)
                 for v in imp.free_vars()}
        result = find_msa(imp, costs, consistency=[inv])
        assert result is not None
        assert result.variables == {Var("aj", VarKind.ABSTRACTION)}
        assert result.cost == 1


class TestValidation:
    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            find_msa(ge(x, 0), {x: -1})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            find_msa(ge(x, 0), unit_costs, strategy="magic")
