"""Ablation A4: MSA search strategy (branch-and-bound vs cost-ordered
subset enumeration).

Both strategies are exact; they must return assignments of identical
cost.  Branch-and-bound is the default.  It carries each search node's
QE residual down the tree and prunes a subtree once the residual is
unsatisfiable; that residual quantifies the node's excluded variables
and also the variables outside the search set (``restrict``).  Subset
enumeration checks every candidate from scratch and is the reference.
"""

from __future__ import annotations

import pytest

from repro.diagnosis.abduction import _relevant_variables
from repro.logic import implies
from repro.diagnosis import pi_p
from repro.msa import MsaSolver
from repro.suite import BENCHMARKS


def run_msa(analysis, strategy):
    inv, phi = analysis.invariants, analysis.success
    goal = implies(inv, phi)
    costs = pi_p(inv, phi)
    solver = MsaSolver()
    relevant = _relevant_variables(goal, phi.free_vars())
    return solver.find(goal, costs, consistency=[inv],
                       strategy=strategy, restrict=relevant)


def test_strategies_agree_on_cost(suite_artifacts):
    print()
    for name, (_bench, _program, analysis) in suite_artifacts.items():
        bb = run_msa(analysis, "branch_bound")
        subsets = run_msa(analysis, "subsets")
        if bb is None or subsets is None:
            assert bb is None and subsets is None
            continue
        print(f"  {name:16s} cost={bb.cost} "
              f"(bb vars={sorted(v.name for v in bb.variables)})")
        assert bb.cost == subsets.cost


@pytest.mark.parametrize("strategy", ["branch_bound", "subsets"])
def test_msa_strategy_speed(benchmark, suite_artifacts, strategy):
    _bench, _program, analysis = suite_artifacts["p02_wordcount"]
    result = benchmark.pedantic(
        run_msa, args=(analysis, strategy), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert result is not None
