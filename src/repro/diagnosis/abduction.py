"""Abductive inference of proof obligations and failure witnesses
(Sections 4.1 and 4.2, Lemmas 3 and 5).

Given invariants ``I`` and success condition ``phi``:

* a *weakest minimum proof obligation* ``Gamma`` satisfies
  ``Gamma ∧ I |= phi`` and ``SAT(Gamma ∧ I)`` with minimum cost under
  ``Pi_p``, and is the weakest such formula at that cost;
* a *weakest minimum failure witness* ``Upsilon`` satisfies
  ``Upsilon ∧ I |= ¬phi`` and ``SAT(Upsilon ∧ I)`` with minimum cost
  under ``Pi_w``.

Both are computed the same way (Lemma 3 / Lemma 5):

1. find a minimum satisfying assignment of ``I => target`` consistent
   with the required side formulas (the invariants — plus, for proof
   obligations, all learned witnesses);
2. universally eliminate every variable *not* in the assignment from
   ``I => target``;
3. simplify the result with ``I`` as the critical constraint so the user
   is not asked about facts the analysis already knows.

All three steps read only the part of ``I`` that the target and the side
formulas can reach (:func:`relevant_invariants`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .. import obs
from ..logic.formulas import And, Formula, conj, implies, neg
from ..obs import provenance as prov
from ..logic.terms import Var
from ..msa import MsaResult, MsaSolver
from ..qe import eliminate_forall
from ..simplify import Simplifier
from ..smt import SmtSolver
from .cost import CostFn, formula_cost


def _relevant_variables(goal: Formula,
                        seeds: frozenset[Var]) -> list[Var]:
    """Variables connected to ``seeds`` through shared atoms of ``goal``.

    A variable in a connected component disjoint from the target can only
    influence ``I => target`` by falsifying its own slice of ``I`` —
    which consistency with ``I`` (Definition 6) forbids — so no optimal
    assignment ever mentions it.  Restricting the MSA search to the
    connected variables is therefore exact, and it prunes the search
    space dramatically on programs with many independent facts.
    """
    adjacency: dict[Var, set[Var]] = {}
    for atom in goal.atoms():
        group = atom.free_vars()
        for v in group:
            adjacency.setdefault(v, set()).update(group)
    reached = set(seeds) & set(adjacency)
    frontier = list(reached)
    while frontier:
        v = frontier.pop()
        for u in adjacency.get(v, ()):
            if u not in reached:
                reached.add(u)
                frontier.append(u)
    return sorted(reached, key=lambda v: v.name)


def relevant_invariants(solver: SmtSolver, invariants: Formula,
                        *seeds: Formula) -> Formula:
    """The slice ``I_rel`` of ``invariants`` that checks over ``seeds``
    can reach (docs/INTERNALS.md, "Slicing ``I``").

    ``I_rel`` keeps the ground conjuncts and every conjunct that shares
    a variable with the seeds, directly or through kept conjuncts.  The
    rest, ``I_irr``, shares no variable with ``I_rel`` or the seeds, so
    when it is satisfiable every check over the seeds' variables
    decides the same on ``I_rel``: ``SAT(I ∧ ψ)``, ``I |= ψ``, and
    ``forall X. (I -> t)`` once ``X`` covers ``I_irr``'s variables.
    ``invariants`` itself comes back when nothing is dropped, and when
    ``I_irr`` is unsatisfiable, which the consistency check must see.

    The split is by conjunct, not by atom: a disjunctive conjunct
    couples all of its atoms' variables.
    """
    parts = invariants.args if isinstance(invariants, And) \
        else (invariants,)
    reached: set[Var] = set()
    for seed in seeds:
        reached |= seed.free_vars()
    keep = [not part.free_vars() for part in parts]
    grown = True
    while grown:
        grown = False
        for index, part in enumerate(parts):
            if not keep[index] \
                    and not reached.isdisjoint(part.free_vars()):
                keep[index] = grown = True
                reached |= part.free_vars()
    dropped = [p for p, k in zip(parts, keep) if not k]
    if not dropped or not solver.is_sat(conj(*dropped)):
        return invariants
    return conj(*(p for p, k in zip(parts, keep) if k))


@dataclass(frozen=True)
class Abduction:
    """A computed query formula with its provenance."""

    formula: Formula
    cost: int
    kind: str                      # 'proof_obligation' | 'failure_witness'
    msa: MsaResult
    unsimplified: Formula

    @property
    def is_trivial(self) -> bool:
        return self.formula.is_true


class Abducer:
    """Shared abduction engine (one SMT solver for all steps; its
    verdicts live in the process-wide ``is_sat`` memo)."""

    def __init__(self, *, msa_strategy: str = "branch_bound",
                 use_simplification: bool = True,
                 solver: SmtSolver | None = None):
        self._solver = solver if solver is not None else SmtSolver()
        self._msa = MsaSolver(self._solver)
        self._simplifier = Simplifier(self._solver)
        self._strategy = msa_strategy
        self._use_simplification = use_simplification

    # ------------------------------------------------------------------
    def proof_obligation(
        self,
        invariants: Formula,
        success: Formula,
        costs: CostFn,
        witnesses: Sequence[Formula] = (),
        extra_consistency: Sequence[Formula] = (),
    ) -> Abduction | None:
        """Compute a weakest minimum proof obligation (Definition 3).

        The MSA must be consistent with ``I`` and with every learned
        witness (Figure 6, line 5) and with any ``extra_consistency``
        formulas (the potential witnesses of Section 5).
        """
        return self._abduce(
            invariants,
            target=success,
            costs=costs,
            side=(*witnesses, *extra_consistency),
            kind="proof_obligation",
        )

    def failure_witness(
        self,
        invariants: Formula,
        success: Formula,
        costs: CostFn,
        extra_consistency: Sequence[Formula] = (),
    ) -> Abduction | None:
        """Compute a weakest minimum failure witness (Definition 10).

        Consistency with learned witnesses is *not* required (a witness
        needs to hold in only one execution), but Section 5's potential
        invariants are passed via ``extra_consistency``.
        """
        return self._abduce(
            invariants,
            target=neg(success),
            costs=costs,
            side=tuple(extra_consistency),
            kind="failure_witness",
        )

    # ------------------------------------------------------------------
    def _abduce(
        self,
        invariants: Formula,
        target: Formula,
        costs: CostFn,
        side: tuple[Formula, ...],
        kind: str,
    ) -> Abduction | None:
        """Lemma 3/5 against ``I``, keeping the MSA consistent with ``I``
        and with each ``side`` formula.  The callers' cost map prices
        the full ``I``; the MSA, the elimination and the simplification
        see only its slice, since the rest changes none of them."""
        obs.inc(f"abduce.{kind}")
        invariants = relevant_invariants(self._solver, invariants, target,
                                         *side)
        goal = implies(invariants, target)
        relevant = _relevant_variables(goal, target.free_vars())
        with obs.span("abduce.msa", kind=kind):
            msa = self._msa.find(
                goal, costs, consistency=[invariants, *side],
                strategy=self._strategy, restrict=relevant,
            )
        if msa is None:
            obs.inc(f"abduce.{kind}.infeasible")
            if prov.is_enabled():
                prov.record("abduce", abduction_kind=kind, cost=None,
                            formula="(infeasible)")
            return None
        keep = msa.variables
        eliminate = [v for v in goal.free_vars() if v not in keep]
        with obs.span("abduce.eliminate", kind=kind):
            raw = eliminate_forall(eliminate, goal)
        if self._use_simplification:
            with obs.span("abduce.simplify", kind=kind):
                formula = self._simplifier.simplify(
                    raw, critical=invariants
                )
        else:
            formula = raw
        cost = formula_cost(formula, costs)
        if obs.is_enabled():
            obs.observe("abduce.formula_size", formula.size())
            raw_size = raw.size()
            if raw_size:
                obs.observe("abduce.simplify_ratio",
                            formula.size() / raw_size)
        if prov.is_enabled():
            prov.record(
                "abduce", abduction_kind=kind, cost=cost,
                formula=prov.fmla(formula),
                msa_variables=[v.name for v in msa.variables],
                msa_cost=msa.cost,
            )
        return Abduction(
            formula=formula,
            cost=cost,
            kind=kind,
            msa=msa,
            unsimplified=raw,
        )

    # convenience handles for the engine ---------------------------------
    @property
    def solver(self) -> SmtSolver:
        return self._solver
