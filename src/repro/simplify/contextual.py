"""Contextual (critical-constraint) simplification.

This is the role played in the paper by the authors' earlier "Small
formulas for large programs" (SAS 2010) simplifier: after Lemma 3 produces
a weakest minimum proof obligation, parts of it may already be implied by
the known invariants ``I``; simplifying *with respect to* ``I`` removes
those redundant parts so the user is never asked about facts the analysis
already knows.

``simplify(phi, critical)`` returns a formula equivalent to ``phi`` under
the assumption ``critical``:  ``critical |= (phi <=> simplify(phi,
critical))``.  The algorithm walks the formula recursively; each conjunct
is simplified under the context strengthened with its siblings, each
disjunct under the context strengthened with its siblings' negations, and
atoms that the context decides are folded to constants.
"""

from __future__ import annotations

from ..logic.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Dvd,
    Formula,
    Not,
    Or,
    conj,
    disj,
    neg,
)
from ..smt import SmtSolver

#: Rewrite passes per call; a pass that changes nothing ends it early.
PASSES = 2


class Simplifier:
    """Simplification engine with a shared SMT solver (whose ``is_sat``
    verdicts, like every solver's, live in the process-wide memo)."""

    def __init__(self, solver: SmtSolver | None = None):
        self._solver = solver or SmtSolver()

    def simplify(self, phi: Formula, critical: Formula = TRUE) -> Formula:
        """Simplify ``phi`` assuming ``critical`` holds."""
        if not self._solver.is_sat(critical):
            # under an absurd context everything is equivalent to TRUE
            return TRUE
        result = phi
        for _ in range(PASSES):
            simplified = self._simplify(result, critical)
            if simplified == result:
                break
            result = simplified
        return result

    # ------------------------------------------------------------------
    def _simplify(self, phi: Formula, context: Formula) -> Formula:
        if phi.is_true or phi.is_false:
            return phi
        if isinstance(phi, (Atom, Dvd)):
            if self._solver.entails(context, phi):
                return TRUE
            if self._solver.entails(context, neg(phi)):
                return FALSE
            return phi
        if isinstance(phi, Not):
            return neg(self._simplify(phi.arg, context))
        if isinstance(phi, And):
            return self._simplify_and(list(phi.args), context)
        if isinstance(phi, Or):
            return self._simplify_or(list(phi.args), context)
        # quantified subformulas: simplify opaque (decide if context does)
        if self._solver.entails(context, phi):
            return TRUE
        return phi

    def _simplify_and(self, args: list[Formula], context: Formula) -> Formula:
        # simplify each conjunct under context + remaining siblings
        result: list[Formula] = []
        for index, arg in enumerate(args):
            siblings = result + args[index + 1:]
            local = conj(context, *siblings)
            simplified = self._simplify(arg, local)
            if simplified.is_false:
                return FALSE
            if not simplified.is_true:
                result.append(simplified)
        return conj(*result)

    def _simplify_or(self, args: list[Formula], context: Formula) -> Formula:
        result: list[Formula] = []
        for index, arg in enumerate(args):
            siblings = result + args[index + 1:]
            local = conj(context, *(neg(s) for s in siblings))
            simplified = self._simplify(arg, local)
            if simplified.is_true:
                return TRUE
            if not simplified.is_false:
                result.append(simplified)
        return disj(*result)


_DEFAULT = Simplifier()


def simplify(phi: Formula, critical: Formula = TRUE) -> Formula:
    """Simplify with the shared default engine."""
    return _DEFAULT.simplify(phi, critical)
