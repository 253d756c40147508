"""Minimum satisfying assignments (MSA) for Presburger formulas.

The paper (Definitions 4–6) relies on the companion CAV 2012 algorithm
"Minimum Satisfying Assignments for SMT" to find, for a formula ``phi``
and a per-variable cost map ``Pi``, a *partial* assignment ``sigma`` of
minimum cost such that ``sigma(phi)`` is valid (true for every value of
the unassigned variables), and such that ``sigma`` is *consistent* with a
set of side formulas (each ``psi``: ``SAT(F_sigma and psi)``).

The theory here admits quantifier elimination, which gives an exact
characterization: a variable set ``V`` supports an MSA iff

    feasible(V)  :=  QE(forall V'. phi)  and  the conjunction of
    project(psi, V) over the side formulas psi

is satisfiable (``V'`` the complement, ``project`` existential
projection) — any model of ``feasible(V)`` is a valid, consistent partial
assignment over ``V``.

Two complete strategies are provided:

* ``subsets``  — enumerate variable sets in increasing cost via a priority
  queue and return the first feasible one, each checked from scratch
  (simple, obviously correct: the reference for the other strategy);
* ``branch_bound`` — the include/exclude search tree of the CAV'12
  algorithm with cost-based pruning and an infeasibility prune.  Like
  CAV'12, which recurses on ``forall x. phi`` when it drops ``x``, each
  node carries its residual ``QE(forall E u O. phi)`` (``E`` its excluded
  variables, ``O`` the free variables outside the search set) and the
  side formulas projected onto the variables not yet excluded: an
  exclude edge eliminates one variable from its parent's, an include
  edge passes them on unchanged.  An unsatisfiable residual kills the
  whole subtree.

Both are cross-checked against each other in the test suite and exposed
for the ablation benchmark (experiment A4 in DESIGN.md).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .. import obs
from .. import limits as _limits
from ..logic.formulas import Formula, conj, eq
from ..obs import provenance as prov
from ..logic.terms import LinTerm, Var
from ..qe import eliminate_forall, project
from ..smt import SmtSolver

CostMap = Mapping[Var, int]


@dataclass(frozen=True)
class MsaResult:
    """A minimum satisfying assignment."""

    assignment: tuple[tuple[Var, int], ...]
    cost: int

    @property
    def variables(self) -> frozenset[Var]:
        return frozenset(v for v, _ in self.assignment)

    def as_dict(self) -> dict[Var, int]:
        return dict(self.assignment)

    def as_formula(self) -> Formula:
        """F_sigma: the conjunction of equalities the assignment denotes."""
        return conj(*(eq(LinTerm.var(v), c) for v, c in self.assignment))


class MsaSolver:
    """Finds minimum satisfying assignments by QE-backed subset search."""

    def __init__(self, solver: SmtSolver | None = None):
        self._solver = solver or SmtSolver()

    # ------------------------------------------------------------------
    def find(
        self,
        phi: Formula,
        costs: CostMap | Callable[[Var], int],
        consistency: Sequence[Formula] = (),
        *,
        strategy: str = "branch_bound",
        restrict: Sequence[Var] | None = None,
    ) -> MsaResult | None:
        """Return an MSA of ``phi``, or ``None`` if none exists.

        ``costs`` maps each free variable of ``phi`` to a non-negative
        integer cost (Definition 4).  ``consistency`` lists side formulas
        each of which the assignment must be individually consistent with
        (Definition 6; the paper passes the invariants ``I`` and learned
        witnesses ``W``).  ``restrict`` limits the search to a subset of
        the free variables — callers use it when they can prove the
        remaining variables cannot occur in any optimal assignment.
        """
        if restrict is not None:
            allowed = set(restrict) & phi.free_vars()
            variables = sorted(allowed, key=lambda v: v.name)
        else:
            variables = sorted(phi.free_vars(), key=lambda v: v.name)
        cost_of = costs if callable(costs) else (
            lambda v, _m=dict(costs): _m[v]
        )
        cost_map = {v: cost_of(v) for v in variables}
        for v, c in cost_map.items():
            if c < 0:
                raise ValueError(f"negative cost for {v}")

        with obs.span("msa.find", strategy=strategy,
                      variables=len(variables)):
            if strategy == "subsets":
                found = self._search_subsets(phi, variables, cost_map,
                                             list(consistency))
            elif strategy == "branch_bound":
                found = self._search_branch_bound(phi, variables, cost_map,
                                                  list(consistency))
            else:
                raise ValueError(f"unknown MSA strategy {strategy!r}")
        return found

    # ------------------------------------------------------------------
    def _check_candidate(
        self,
        include: Sequence[Var],
        cost: int,
        residual: Formula,
        projections: Sequence[Formula],
    ) -> MsaResult | None:
        """The assignment over ``include`` that a model of ``residual``
        (``QE(forall V'. phi)``, ``V'`` every other free variable of
        ``phi``) and of each side formula's projection onto ``include``
        gives, or ``None`` if there is no such model."""
        obs.inc("msa.candidates")
        result = self._solver.check(conj(residual, *projections))
        found = None
        if result.sat:
            found = MsaResult(
                tuple(sorted(((v, result.model.value(v)) for v in include),
                             key=lambda item: item[0].name)),
                cost,
            )
        if prov.is_enabled():
            node: dict = {
                "variables": sorted(v.name for v in include),
                "cost": cost,
                "status": "kept" if found is not None else "infeasible",
            }
            if found is not None and found.assignment:
                node["assignment"] = {v.name: c for v, c in found.assignment}
            prov.record("msa.node", **node)
        return found

    # ------------------------------------------------------------------
    def _search_subsets(
        self,
        phi: Formula,
        variables: list[Var],
        cost_map: dict[Var, int],
        consistency: list[Formula],
    ) -> MsaResult | None:
        """Enumerate variable subsets in increasing total cost, checking
        each from scratch."""
        order = sorted(variables, key=lambda v: (cost_map[v], v.name))
        n = len(order)
        # heap of (cost, subset-bitmask); push successors lazily
        heap: list[tuple[int, int]] = [(0, 0)]
        seen: set[int] = {0}
        while heap:
            _limits.tick("msa")
            cost, mask = heapq.heappop(heap)
            include = [order[i] for i in range(n) if mask >> i & 1]
            keep = set(include)
            residual = eliminate_forall(
                [v for v in phi.free_vars() if v not in keep], phi)
            found = self._check_candidate(
                include, cost, residual,
                [project(psi, keep) for psi in consistency])
            if found is not None:
                return found
            for i in range(n):
                if mask >> i & 1:
                    continue
                successor = mask | 1 << i
                if successor not in seen:
                    seen.add(successor)
                    heapq.heappush(
                        heap, (cost + cost_map[order[i]], successor)
                    )
        return None

    # ------------------------------------------------------------------
    def _search_branch_bound(
        self,
        phi: Formula,
        variables: list[Var],
        cost_map: dict[Var, int],
        consistency: list[Formula],
    ) -> MsaResult | None:
        """Include/exclude decision tree with cost pruning.

        A node's ``residual`` is ``QE(forall E u O. phi)`` and its
        ``projections`` are the side formulas projected onto the search
        variables not in ``E``.  If an excluded node's residual is
        unsatisfiable, so is every leaf's below it (each quantifies a
        superset of ``E u O``), and the subtree is cut.
        """
        # decide expensive variables first: their exclusion prunes most
        order = sorted(
            variables, key=lambda v: (-cost_map[v], v.name)
        )
        n = len(order)
        best: list[MsaResult | None] = [None]

        def descend(index: int, include: list[Var], cost: int,
                    residual: Formula, projections: list[Formula],
                    dropped: Var | None) -> None:
            _limits.tick("msa")
            if best[0] is not None and cost >= best[0].cost:
                return
            if dropped is not None:
                residual = eliminate_forall([dropped], residual)
                if index < n and not self._solver.is_sat(residual):
                    obs.inc("msa.subtree_prunes")
                    if prov.is_enabled():
                        prov.record("msa.prune", variables=sorted(
                            v.name for v in order[:index]
                            if v not in include))
                    return
                keep = set(include).union(order[index:])
                projections = [project(p, keep) for p in projections]
            if index == n:
                found = self._check_candidate(include, cost, residual,
                                              projections)
                if found is not None:
                    best[0] = found
                return
            v = order[index]
            # try excluding first (cheaper result if it works)
            descend(index + 1, include, cost, residual, projections, v)
            descend(index + 1, include + [v], cost + cost_map[v],
                    residual, projections, None)

        search = set(variables)
        outside = [v for v in phi.free_vars() if v not in search]
        descend(0, [], 0, eliminate_forall(outside, phi),
                [project(psi, search) for psi in consistency], None)
        return best[0]


_DEFAULT = MsaSolver()


def find_msa(
    phi: Formula,
    costs: CostMap | Callable[[Var], int],
    consistency: Sequence[Formula] = (),
    *,
    strategy: str = "branch_bound",
) -> MsaResult | None:
    """Find an MSA with the shared default solver."""
    return _DEFAULT.find(phi, costs, consistency, strategy=strategy)
