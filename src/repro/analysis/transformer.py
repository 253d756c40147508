"""The static analysis of Section 3 (Figure 5's transformers).

Runs *after* loop postconditions have been annotated (by hand or by
:mod:`repro.abstract`) and produces the pair ``(I, phi)``:

* ``I``    — everything known about the abstraction/input variables
  (loop postconditions, havoc assumptions, non-linear product facts,
  unsignedness of inputs), and
* ``phi``  — the exact success condition of the final ``check``.

Lemma 1:  ``I |= phi``      implies the program is error-free.
Lemma 2:  ``I |= not phi``  implies the program is buggy.

The analysis is exact on loop-free code; its only information losses are
named by abstraction variables:

* loops havoc their modified variables to fresh ``alpha``s constrained by
  the ``@post`` annotation;
* ``havoc`` statements (library-call models) produce an ``alpha``
  constrained by their ``@assume``;
* non-linear products produce an ``alpha`` (with the square-nonnegativity
  fact when the operands coincide, as in the paper's ``n*n`` example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..lang.ast import (
    Assign,
    BinOp,
    Block,
    BoolConst,
    BoolOp,
    Cmp,
    Const,
    Expr,
    Havoc,
    If,
    Name,
    NotPred,
    Pred,
    Program,
    Skip,
    Stmt,
    While,
)
from ..lang.diagnostics import AnalysisError, Span
from ..logic.formulas import (
    FALSE,
    TRUE,
    Formula,
    conj,
    disj,
    eq,
    ge,
    gt,
    implies,
    le,
    lt,
    ne,
    neg,
)
from ..logic.terms import LinTerm, Var, VarKind, VarSupply
from .symbolic import Store, ValueSet

_CMP_BUILDERS: dict[str, Callable[[LinTerm, LinTerm], Formula]] = {
    "<": lt, ">": gt, "<=": le, ">=": ge, "==": eq, "!=": ne,
}


@dataclass(frozen=True)
class AbstractionInfo:
    """Provenance of an analysis variable, used to phrase user queries."""

    var: Var
    kind: str                      # 'input' | 'loop' | 'havoc' | 'mul'
    description: str               # human-readable phrase
    program_var: str | None = None
    label: int | None = None       # loop label for 'loop' abstractions
    span: Span | None = None


@dataclass
class AnalysisResult:
    """The judgment ``|- P : I, phi`` plus provenance metadata."""

    program: Program
    invariants: Formula            # I
    success: Formula               # phi
    store: Store
    input_vars: dict[str, Var]
    info: dict[Var, AbstractionInfo] = field(default_factory=dict)

    @property
    def all_vars(self) -> frozenset[Var]:
        return self.invariants.free_vars() | self.success.free_vars()


class SymbolicAnalyzer:
    """Implements the transformers of Figure 5.

    Value-set entries whose guard is unsatisfiable (checked with the SMT
    stack) are dropped.  This is semantics preserving — an entry with an
    unsatisfiable guard describes no execution — and prevents the
    exponential accumulation of dead path combinations on branch-heavy
    (e.g. loop-unrolled) code.  With a :class:`repro.cache.CacheStore`,
    the guard verdicts persist there (``smt-sat``).
    """

    def __init__(self, store=None) -> None:
        from ..smt import SmtSolver  # analysis sits above smt

        self._facts: list[Formula] = []
        self._info: dict[Var, AbstractionInfo] = {}
        self._supply: VarSupply | None = None
        self._solver = SmtSolver(store)

    def _prune_store(self, store: Store) -> Store:
        pruned = Store()
        for name, value_set in store.items():
            entries = tuple(
                (pi, guard)
                for pi, guard in value_set
                if guard.is_true or self._solver.is_sat(guard)
            )
            pruned[name] = ValueSet(entries)
        return pruned

    # ------------------------------------------------------------------
    def analyze(self, program: Program) -> AnalysisResult:
        """Produce the judgment ``|- P : I, phi``."""
        self._facts = []
        self._info = {}
        self._supply = VarSupply(prefix="$a")

        store = Store()
        input_vars: dict[str, Var] = {}
        for param in program.params:
            nu = Var(param.name, VarKind.INPUT, origin=("input", param.name))
            input_vars[param.name] = nu
            self._info[nu] = AbstractionInfo(
                nu, "input", f"the program input {param.name!r}",
                program_var=param.name, span=param.span,
            )
            store[param.name] = ValueSet.var(nu)
            if param.unsigned:
                self._facts.append(ge(nu, 0))
        self._supply.reserve(input_vars.values())
        for name in program.locals:
            store[name] = ValueSet.constant(0)

        store, facts = self._block(program.body, store)
        self._facts.extend(facts)
        success = self._pred(program.check.pred, store)
        invariants = conj(*self._facts)
        return AnalysisResult(
            program=program,
            invariants=invariants,
            success=success,
            store=store,
            input_vars=input_vars,
            info=dict(self._info),
        )

    # ------------------------------------------------------------------
    # statements: return (new store, new facts)
    # ------------------------------------------------------------------
    def _block(self, block: Block, store: Store
               ) -> tuple[Store, list[Formula]]:
        facts: list[Formula] = []
        for stmt in block.body:
            store, new = self._stmt(stmt, store)
            facts.extend(new)
        return store, facts

    def _stmt(self, stmt: Stmt, store: Store
              ) -> tuple[Store, list[Formula]]:
        if isinstance(stmt, Skip):
            return store, []
        if isinstance(stmt, Assign):
            facts: list[Formula] = []
            value = self._expr(stmt.value, store, facts)
            new_store = store.copy()
            new_store[stmt.target] = value
            return new_store, facts
        if isinstance(stmt, Havoc):
            return self._havoc(stmt, store)
        if isinstance(stmt, Block):
            return self._block(stmt, store)
        if isinstance(stmt, If):
            return self._if(stmt, store)
        if isinstance(stmt, While):
            return self._while(stmt, store)
        raise AnalysisError(
            f"statement not supported by the analysis: {stmt!r}", stmt.span
        )

    def _havoc(self, stmt: Havoc, store: Store
               ) -> tuple[Store, list[Formula]]:
        alpha = self._fresh_abstraction(
            f"{stmt.target}@havoc_l{stmt.span.line}",
            kind="havoc",
            description=(
                f"the value of {stmt.target!r} produced by the library "
                f"call at line {stmt.span.line}"
            ),
            program_var=stmt.target,
            span=stmt.span,
        )
        new_store = store.copy()
        new_store[stmt.target] = ValueSet.var(alpha)
        facts: list[Formula] = []
        if stmt.assume is not None:
            facts.append(self._pred(stmt.assume, new_store, facts))
        return new_store, facts

    def _if(self, stmt: If, store: Store) -> tuple[Store, list[Formula]]:
        facts: list[Formula] = []
        cond = self._pred(stmt.cond, store, facts)
        then_store, then_facts = self._block(stmt.then_branch, store.copy())
        else_store, else_facts = self._block(stmt.else_branch, store.copy())
        joined = self._prune_store(
            then_store.guard(cond).join(else_store.guard(neg(cond)))
        )
        facts.extend(implies(cond, f) for f in then_facts)
        facts.extend(implies(neg(cond), f) for f in else_facts)
        return joined, facts

    def _while(self, stmt: While, store: Store
               ) -> tuple[Store, list[Formula]]:
        new_store = store.copy()
        for name in sorted(stmt.modified_vars()):
            alpha = self._fresh_abstraction(
                f"{name}@loop{stmt.label}",
                kind="loop",
                description=(
                    f"the value of {name!r} immediately after the loop at "
                    f"line {stmt.span.line}"
                ),
                program_var=name,
                label=stmt.label,
                span=stmt.span,
            )
            new_store[name] = ValueSet.var(alpha)
        facts: list[Formula] = []
        if stmt.post is not None:
            facts.append(self._pred(stmt.post, new_store, facts))
        return new_store, facts

    # ------------------------------------------------------------------
    # expressions and predicates (Figures 3 and 4)
    # ------------------------------------------------------------------
    def _expr(self, expr: Expr, store: Store,
              facts: list[Formula]) -> ValueSet:
        if isinstance(expr, Const):
            return ValueSet.constant(expr.value)
        if isinstance(expr, Name):
            try:
                return store[expr.name]
            except KeyError:
                raise AnalysisError(
                    f"unbound variable {expr.name!r}", expr.span
                )
        if isinstance(expr, BinOp):
            left = self._expr(expr.left, store, facts)
            right = self._expr(expr.right, store, facts)
            if expr.op == "+":
                return left.add(right)
            if expr.op == "-":
                return left.sub(right)
            if expr.op == "*":
                return self._mul(expr, left, right, facts)
            raise AnalysisError(f"unknown operator {expr.op!r}", expr.span)
        raise TypeError(f"unexpected expression node {expr!r}")

    def _mul(self, expr: BinOp, left: ValueSet, right: ValueSet,
             facts: list[Formula]) -> ValueSet:
        """Multiplication: exact when linear, abstracted otherwise."""
        entries: list[tuple[LinTerm, Formula]] = []
        nonlinear_guards: list[Formula] = []
        for pi1, phi1 in left:
            for pi2, phi2 in right:
                guard = conj(phi1, phi2)
                if guard.is_false:
                    continue
                if pi1.is_constant:
                    entries.append((pi2.scale(pi1.const), guard))
                elif pi2.is_constant:
                    entries.append((pi1.scale(pi2.const), guard))
                else:
                    nonlinear_guards.append(guard)
        if nonlinear_guards:
            alpha = self._fresh_abstraction(
                f"mul_l{expr.span.line}",
                kind="mul",
                description=(
                    f"the value of the non-linear product "
                    f"{expr.left} * {expr.right} at line {expr.span.line}"
                ),
                span=expr.span,
            )
            entries.append((LinTerm.var(alpha), disj(*nonlinear_guards)))
            if expr.left == expr.right:
                # x*x >= 0 — the fact the paper derives for n*n
                facts.append(ge(alpha, 0))
        return ValueSet.of(entries)

    def _pred(self, pred: Pred, store: Store,
              facts: list[Formula] | None = None) -> Formula:
        if facts is None:
            facts = []
        if isinstance(pred, BoolConst):
            return TRUE if pred.value else FALSE
        if isinstance(pred, Cmp):
            left = self._expr(pred.left, store, facts)
            right = self._expr(pred.right, store, facts)
            return left.compare(right, _CMP_BUILDERS[pred.op])
        if isinstance(pred, BoolOp):
            parts = [self._pred(p, store, facts) for p in pred.parts]
            return conj(*parts) if pred.op == "&&" else disj(*parts)
        if isinstance(pred, NotPred):
            return neg(self._pred(pred.arg, store, facts))
        raise TypeError(f"unexpected predicate node {pred!r}")

    # ------------------------------------------------------------------
    def _fresh_abstraction(self, hint: str, *, kind: str, description: str,
                           program_var: str | None = None,
                           label: int | None = None,
                           span: Span | None = None) -> Var:
        assert self._supply is not None
        base = Var(hint, VarKind.ABSTRACTION)
        if base.name not in {v.name for v in self._info}:
            alpha = base
            self._supply.reserve([alpha])
        else:
            alpha = self._supply.fresh(hint, VarKind.ABSTRACTION)
        self._info[alpha] = AbstractionInfo(
            alpha, kind, description, program_var=program_var,
            label=label, span=span,
        )
        return alpha


def analyze_program(program: Program, *, store=None) -> AnalysisResult:
    """Run the Section 3 analysis on an (annotated) program; ``store``
    persists its guard verdicts."""
    return SymbolicAnalyzer(store).analyze(program)
