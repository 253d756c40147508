"""Query cost models (Definitions 2 and 9).

The paper's cost functions steer abduction toward queries humans find
easy:

* ``Pi_p`` (proof obligations): abstraction variables cost 1, input
  variables cost ``|Vars(phi) ∪ Vars(I)|`` — constraining the execution
  environment should be a last resort when trying to *discharge* an
  error;
* ``Pi_w`` (failure witnesses): dual — input variables cost 1,
  abstraction variables cost ``|Vars(phi) ∪ Vars(I)|`` — witnesses about
  inputs are easy to confirm by running the program.

A uniform model is provided for the cost-function ablation (A1).
"""

from __future__ import annotations

from typing import Callable

from ..logic.formulas import Formula
from ..logic.terms import Var

CostFn = Callable[[Var], int]


def total_vars(invariants: Formula, success: Formula) -> int:
    """``|Vars(phi) ∪ Vars(I)|`` — the expensive tier of both models."""
    return len(invariants.free_vars() | success.free_vars())


def pi_p(invariants: Formula, success: Formula) -> CostFn:
    """Definition 2: the proof-obligation cost map."""
    expensive = max(1, total_vars(invariants, success))

    def cost(v: Var) -> int:
        return 1 if v.is_abstraction else expensive

    return cost


def pi_w(invariants: Formula, success: Formula) -> CostFn:
    """Definition 9: the failure-witness cost map."""
    expensive = max(1, total_vars(invariants, success))

    def cost(v: Var) -> int:
        return 1 if v.is_input else expensive

    return cost


def uniform(_invariants: Formula, _success: Formula) -> CostFn:
    """Ablation A1: every variable costs 1."""
    return lambda v: 1


def formula_cost(phi: Formula, cost: CostFn) -> int:
    """``Cost(Gamma) = sum of costs of Vars(Gamma)`` (Definitions 2/9)."""
    return sum(cost(v) for v in phi.free_vars())
