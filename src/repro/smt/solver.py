"""A lazy SMT solver for quantifier-free linear integer arithmetic.

Architecture (classic lazy / DPLL(T) with offline theory checks):

1. the input formula is put in NNF and its atoms are mapped to boolean
   variables — atom *pairs* related by negation (``t = 0`` / ``t != 0``,
   ``d | t`` / ``d !| t``, and the two integer-tightened sides of an
   inequality) share one variable with opposite polarities;
2. the boolean skeleton is Tseitin/Plaisted–Greenbaum encoded into CNF and
   handed to the CDCL solver of :mod:`repro.sat`;
3. each propositional model induces a conjunction of theory literals that
   the Omega test (:mod:`repro.lia`) checks; theory conflicts come back as
   minimal unsat cores and are blocked with new clauses.

A literal, or a conjunction of literals, needs no propositional search:
its one propositional model makes every literal true, so its literals go
straight to the Omega test.  Every result is memoized process-wide, keyed
by the formula, so each formula is decided once.  A solver built with a
:class:`repro.cache.CacheStore` also persists its ``is_sat`` verdicts
there (the ``smt-sat`` stage).

Quantified formulas are handled by first running Cooper quantifier
elimination (imported lazily to keep package layering acyclic).
"""

from __future__ import annotations

from .. import obs
from .. import limits as _limits
from ..lia import Model, OmegaSolver
from ..logic.digest import digest
from ..logic.intern import MISSING, Memo
from ..limits import ResourceExhausted
from ..logic.formulas import (
    And,
    Atom,
    Connective,
    Dvd,
    Formula,
    Or,
    Rel,
    is_quantifier_free,
    neg,
)
from ..logic.normal_forms import nnf
from ..sat import SatSolver

#: Theory rounds one lazy check may take before it gives up.
_MAX_THEORY_ROUNDS = 200_000

#: The :class:`SmtResult` of every check in the process, keyed by the
#: formula as given to ``check``/``is_sat``.  A verdict read from a store
#: enters with no model; a later ``check`` recomputes and replaces it.
_VERDICTS = Memo("smt.is_sat", 50_000)


def atom_polarity(literal: Formula) -> tuple[Formula, bool]:
    """Canonicalize a literal into (base atom, polarity).

    The base atom is chosen so that a literal and its negation map to the
    same base with opposite polarities, letting the SAT solver see them as
    one variable.  ``t = 0``, ``d | t`` and ``t <= 0`` with a positive
    first coefficient are bases; any other literal is the negation of its
    base, which the atom memoizes.
    """
    if isinstance(literal, Atom):
        rel = literal.rel
        if rel is Rel.EQ or (rel is Rel.LE and literal.term.coeffs[0][1] > 0):
            return literal, True
        return literal.negated(), False
    if isinstance(literal, Dvd):
        if literal.negated_flag:
            return literal.negated(), False
        return literal, True
    raise TypeError(f"not a literal: {literal!r}")


class SmtResult:
    """Outcome of a satisfiability check.

    ``store`` is the store the verdict was last written to or read from
    (None when none has seen it), so a memo hit knows whether the
    asking solver's store still lacks it."""

    __slots__ = ("sat", "model", "store")

    def __init__(self, sat: bool, model: Model | None, store=None):
        self.sat = sat
        self.model = model
        self.store = store

    def __bool__(self) -> bool:
        return self.sat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SmtResult(sat={self.sat}, model={self.model})"


class SmtSolver:
    """Satisfiability, validity and entailment for QFLIA (and, via Cooper
    quantifier elimination, full Presburger arithmetic).

    ``store`` (a :class:`repro.cache.CacheStore`) persists ``is_sat``
    verdicts: the analyzer's guard checks are the one caller that
    passes one."""

    def __init__(self, store=None):
        self._theory = OmegaSolver()
        self._store = store

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def check(self, phi: Formula) -> SmtResult:
        """Check satisfiability; returns a result carrying a model if SAT.

        Each formula is decided once per process: a memoized UNSAT
        result, or a SAT one with its model, is returned as it is."""
        # checkpoint at entry as well as at the lazy round loop: memo
        # hits, trivial formulas and literal conjunctions short-circuit
        # below, and a governed deadline must still be noticed there
        _limits.tick("smt")
        hit = _VERDICTS.get(phi)
        if hit is not MISSING and (not hit.sat or hit.model is not None):
            return hit
        if not obs.is_enabled():
            result = self._check(phi)
        else:
            # span durations feed the per-stage latency histograms
            with obs.span("smt.check"):
                obs.observe("smt.formula_size", phi.size())
                result = self._check(phi)
        if hit is not MISSING:
            result.store = hit.store  # that store still holds the verdict
        _VERDICTS.put(phi, result)
        return result

    def _check(self, phi: Formula) -> SmtResult:
        phi = self._prepare(phi)
        if phi.is_true:
            return SmtResult(True, Model())
        if phi.is_false:
            return SmtResult(False, None)
        literals = phi.args if isinstance(phi, And) else (phi,)
        if not all(isinstance(lit, (Atom, Dvd)) for lit in literals):
            return self._check_lazy(phi)
        # a literal conjunction's one propositional model makes every
        # literal true: the lazy loop would hand Omega these, in order
        model = self._theory.solve_literals(literals)
        return SmtResult(model is not None, model)

    def is_sat(self, phi: Formula) -> bool:
        """Memo first, then this solver's store's ``smt-sat`` tier, then
        :meth:`check`.  The store gets every verdict it has not seen,
        memo hits included, so what a fill writes does not depend on
        what the process checked before; only store I/O computes the
        digest."""
        store = self._store
        result = _VERDICTS.get(phi)
        if result is MISSING and store is not None:
            artifact = store.get("smt-sat", digest(phi))
            if artifact is not None:
                result = SmtResult(bool(artifact["sat"]), None, store)
                _VERDICTS.put(phi, result)
        if result is not MISSING:
            _limits.tick("smt")  # hits skip check(); keep the deadline live
            obs.inc("smt.is_sat.hit")
        else:
            obs.inc("smt.is_sat.miss")
            result = self.check(phi)
        if store is not None and result.store is not store:
            store.put("smt-sat", digest(phi), {"sat": result.sat})
            result.store = store
        return result.sat

    def get_model(self, phi: Formula) -> Model | None:
        return self.check(phi).model

    def is_valid(self, phi: Formula) -> bool:
        return not self.is_sat(neg(phi))

    def entails(self, premise: Formula, conclusion: Formula) -> bool:
        """premise |= conclusion."""
        return not self.is_sat(premise & neg(conclusion))

    def equivalent(self, left: Formula, right: Formula) -> bool:
        return self.entails(left, right) and self.entails(right, left)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _prepare(phi: Formula) -> Formula:
        if not is_quantifier_free(phi):
            from ..qe import eliminate_quantifiers  # lazy: layering

            phi = eliminate_quantifiers(phi)
        return nnf(phi)

    def _check_lazy(self, phi: Formula) -> SmtResult:
        obs.inc("smt.fresh_checks")
        sat = SatSolver()
        atom_vars: dict[Formula, int] = {}   # base atom -> boolean var
        var_atoms: dict[int, Formula] = {}

        def literal_var(literal: Formula) -> int:
            base, polarity = atom_polarity(literal)
            if base not in atom_vars:
                var = sat.new_var()
                atom_vars[base] = var
                var_atoms[var] = base
            var = atom_vars[base]
            return var if polarity else -var

        encoded: dict[Formula, int] = {}

        def encode(node: Formula) -> int:
            """Plaisted-Greenbaum (one-sided) encoding; returns a literal
            equisatisfiable with the node being true.  Memoized so shared
            subformulas (ubiquitous in guard DAGs) encode once."""
            cached = encoded.get(node)
            if cached is not None:
                return cached
            if isinstance(node, (Atom, Dvd)):
                gate = literal_var(node)
            elif isinstance(node, And):
                gate = sat.new_var()
                for child in node.args:
                    sat.add_clause([-gate, encode(child)])
            elif isinstance(node, Or):
                gate = sat.new_var()
                sat.add_clause(
                    [-gate] + [encode(child) for child in node.args]
                )
            else:
                raise TypeError(f"unexpected node in NNF formula: {node!r}")
            encoded[node] = gate
            return gate

        root = encode(phi)
        sat.add_clause([root])

        def implicant(node: Formula, acc: dict[Formula, None],
                      holds_memo: dict[Formula, bool]) -> None:
            """Collect a small literal set that makes ``node`` true under
            the current propositional assignment (the assignment satisfies
            the formula, so one always exists).  Passing only these
            literals to the theory keeps the conjunctions small and the
            blocking clauses general."""
            if isinstance(node, (Atom, Dvd)):
                base, polarity = atom_polarity(node)
                value = assignment[atom_vars[base]]
                assert value == polarity, "assignment must satisfy formula"
                acc.setdefault(node, None)
                return
            if isinstance(node, And):
                for child in node.args:
                    implicant(child, acc, holds_memo)
                return
            assert isinstance(node, Or)
            for child in node.args:
                if self._holds(child, assignment, atom_vars, holds_memo):
                    implicant(child, acc, holds_memo)
                    return
            raise AssertionError("assignment must satisfy some disjunct")

        for _ in range(_MAX_THEORY_ROUNDS):
            _limits.tick("smt")
            if not sat.solve():
                return SmtResult(False, None)
            assignment = sat.model()
            seen: dict[Formula, None] = {}
            implicant(phi, seen, {})
            literals = list(seen)
            model = self._theory.solve_literals(literals)
            if model is not None:
                return SmtResult(True, model)
            core = self._theory.unsat_core(literals)
            blocking = []
            for lit in core:
                base, polarity = atom_polarity(lit)
                var = atom_vars[base]
                blocking.append(-var if polarity else var)
            sat.add_clause(blocking)
        raise ResourceExhausted(
            "smt", _MAX_THEORY_ROUNDS, _MAX_THEORY_ROUNDS,
            message="SMT solver exceeded theory-round budget",
        )

    @staticmethod
    def _holds(node: Formula, assignment: dict[int, bool],
               atom_vars: dict[Formula, int],
               memo: dict[Formula, bool]) -> bool:
        """Evaluate an NNF node under a propositional atom assignment
        (memoized over the shared-subformula DAG)."""
        cached = memo.get(node)
        if cached is not None:
            return cached
        if isinstance(node, (Atom, Dvd)):
            base, polarity = atom_polarity(node)
            result = assignment[atom_vars[base]] == polarity
        else:
            assert isinstance(node, Connective)
            result = node.fold(
                SmtSolver._holds(child, assignment, atom_vars, memo)
                for child in node.args
            )
        memo[node] = result
        return result


# A module-level default solver for the convenience functions below (its
# verdicts share the process-wide memo, like every solver's).
_DEFAULT = SmtSolver()


def is_sat(phi: Formula) -> bool:
    return _DEFAULT.is_sat(phi)


def get_model(phi: Formula) -> Model | None:
    return _DEFAULT.get_model(phi)


def is_valid(phi: Formula) -> bool:
    return _DEFAULT.is_valid(phi)


def entails(premise: Formula, conclusion: Formula) -> bool:
    return _DEFAULT.entails(premise, conclusion)


def equivalent(left: Formula, right: Formula) -> bool:
    return _DEFAULT.equivalent(left, right)
