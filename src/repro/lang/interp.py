"""Concrete interpreter implementing the operational semantics (Figure 1).

The interpreter serves three roles in the reproduction:

* differential testing — the symbolic analysis must agree with it exactly
  on loop-free programs;
* ground truth for the benchmark suite — a program "is buggy" iff some
  execution makes the final check false (Figure 1's semantics);
* the sampling oracle (Section 8's future-work direction) runs it to
  answer failure-witness queries automatically.

Execution is compiled: each program is translated once into nested
Python functions (one per AST node, specialised on the shapes of their
operands), which every later run calls directly instead of dispatching
on node types.  Each function takes what it reads as default arguments,
not as closure cells: a compiled program is then one function and one
tuple per node, which is what an oracle builds, and frees, per report.
``eval_expr``/``eval_pred`` compile their argument the same way, so
there is one evaluator.

``havoc`` statements make execution nondeterministic; a
:class:`HavocPolicy` resolves each havoc, by default sampling values that
satisfy the ``@assume`` predicate (via the SMT stack when sampling fails).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping, Sequence

from .ast import (
    Assert,
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
from .diagnostics import AnalysisError

#: compiled forms: expressions and predicates take the environment and
#: the site recorder (``None`` = do not record); statements take the
#: environment and the execution result they update
ExprFn = Callable[[dict, "dict[int, int] | None"], int]
PredFn = Callable[[dict, "dict[int, int] | None"], bool]
StmtFn = Callable[[dict, "ExecutionResult"], None]


class OutOfFuel(RuntimeError):
    """Raised when execution exceeds the step budget (possible divergence)."""


@dataclass
class ExecutionResult:
    """Outcome of one concrete execution.

    ``site_values`` records, keyed by source offset, the last value
    produced at instrumented sites (havocs and non-linear products) so
    that oracles can evaluate abstraction variables against this run.
    ``loop_exit_envs`` records the environment each time a loop exits.
    """

    ok: bool                       # did check(p) evaluate to true?
    env: dict[str, int]            # final variable environment
    steps: int
    havoc_values: list[int] = field(default_factory=list)
    loop_exit_envs: dict[int, list[dict[str, int]]] = field(
        default_factory=dict
    )
    site_values: dict[int, int] = field(default_factory=dict)


class HavocPolicy:
    """Resolves ``havoc x @assume(p)`` to concrete values.

    Tries random sampling against the assumption first; falls back to the
    SMT solver for assumptions random probing cannot hit.
    """

    def __init__(self, rng: random.Random | None = None,
                 *, low: int = -64, high: int = 64, attempts: int = 64):
        self._rng = rng or random.Random(0)
        self._low = low
        self._high = high
        self._attempts = attempts

    def resolve(self, stmt: Havoc, env: Mapping[str, int]) -> int:
        return self._sampler(stmt)(dict(env))

    def _sampler(self, stmt: Havoc, bound: Collection[str] = ()
                 ) -> Callable[[dict[str, int]], int]:
        """Compile the resolution of one havoc site.

        The returned function draws the same ``randint`` sequence from
        this policy's RNG as :meth:`resolve`.  It tests each candidate in
        place, by writing it to the target in the environment it is
        given (callers overwrite the target with the result), and it
        solves the SMT fallback once per distinct values of the
        assumption's other variables, for as long as the function lives.
        ``bound`` names variables the environment always binds.
        """
        randint = self._rng.randint
        low, high, attempts = self._low, self._high, self._attempts
        if stmt.assume is None:
            return lambda env: randint(low, high)
        target = stmt.target
        assume = _compile_pred(stmt.assume, frozenset(bound) | {target})
        others = tuple(sorted(stmt.assume.variables() - {target}))
        solved: dict[tuple, int] = {}

        def sample(env: dict[str, int]) -> int:
            for _ in range(attempts):
                candidate = randint(low, high)
                env[target] = candidate
                if assume(env, None):
                    return candidate
            key = tuple([env.get(name) for name in others])
            value = solved.get(key)
            if value is None:
                value = solved[key] = self._solve(stmt, env)
            return value

        return sample

    def _solve(self, stmt: Havoc, env: Mapping[str, int]) -> int:
        from ..analysis.lowering import lower_pred_concrete  # lazy: layering
        from ..logic.terms import Var
        from ..smt import SmtSolver

        assert stmt.assume is not None
        phi = lower_pred_concrete(stmt.assume, env, free={stmt.target})
        model = SmtSolver().get_model(phi)
        if model is None:
            raise AnalysisError(
                f"havoc assumption is unsatisfiable in this state: "
                f"{stmt.assume}",
                stmt.span,
            )
        return model.value(Var(stmt.target))


class FixedHavocPolicy(HavocPolicy):
    """Replays a fixed sequence of havoc values (for deterministic tests).

    Values that violate the assumption are replaced via the base policy.
    """

    def __init__(self, values: Sequence[int]):
        super().__init__(random.Random(0))
        self._values = list(values)
        self._index = 0

    def resolve(self, stmt: Havoc, env: Mapping[str, int]) -> int:
        if self._index < len(self._values):
            candidate = self._values[self._index]
            self._index += 1
            if stmt.assume is None:
                return candidate
            trial = dict(env)
            trial[stmt.target] = candidate
            if eval_pred(stmt.assume, trial):
                return candidate
        return super().resolve(stmt, env)


def eval_expr(expr: Expr, env: Mapping[str, int],
              recorder: dict[int, int] | None = None) -> int:
    """Evaluate an expression (Figure 1's expression judgments).

    When ``recorder`` is given, non-linear products record their value
    keyed by the source offset of the ``*`` expression.
    """
    return _compile_expr(expr, frozenset())(env, recorder)


def eval_pred(pred: Pred, env: Mapping[str, int],
              recorder: dict[int, int] | None = None) -> bool:
    """Evaluate a predicate (Figure 1's predicate judgments)."""
    return _compile_pred(pred, frozenset())(env, recorder)


# ---------------------------------------------------------------------------
# compilation of expressions and predicates
# ---------------------------------------------------------------------------

_ARITH = {"+": operator.add, "-": operator.sub}

_CMP = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _operand(expr: Expr, bound: frozenset[str]):
    """``("c", value)`` for a constant, ``("n", name)`` for a name the
    environment always binds, else ``("f", compiled)``."""
    if isinstance(expr, Const):
        return "c", expr.value
    if isinstance(expr, Name) and expr.name in bound:
        return "n", expr.name
    return "f", _compile_expr(expr, bound)


def _combine(op, left: Expr, right: Expr, bound: frozenset[str]) -> ExprFn:
    """``op(left, right)``, evaluated left to right, with constant and
    always-bound operands read inline instead of through a closure."""
    (lk, a), (rk, b) = _operand(left, bound), _operand(right, bound)
    if lk == "n":
        if rk == "c":
            return lambda env, sites, op=op, a=a, b=b: op(env[a], b)
        if rk == "n":
            return lambda env, sites, op=op, a=a, b=b: op(env[a], env[b])
        return lambda env, sites, op=op, a=a, b=b: op(env[a], b(env, sites))
    if lk == "c":
        if rk == "c":
            return lambda env, sites, op=op, a=a, b=b: op(a, b)
        if rk == "n":
            return lambda env, sites, op=op, a=a, b=b: op(a, env[b])
        return lambda env, sites, op=op, a=a, b=b: op(a, b(env, sites))
    if rk == "c":
        return lambda env, sites, op=op, a=a, b=b: op(a(env, sites), b)
    if rk == "n":
        return lambda env, sites, op=op, a=a, b=b: op(a(env, sites), env[b])
    return lambda env, sites, op=op, a=a, b=b: op(a(env, sites), b(env, sites))


def records_product(expr: Expr) -> bool:
    """Whether evaluating ``expr`` records its value as a product site:
    a ``*`` with no constant operand."""
    return isinstance(expr, BinOp) and expr.op == "*" and not (
        isinstance(expr.left, Const) or isinstance(expr.right, Const))


def _compile_expr(expr: Expr, bound: frozenset[str]) -> ExprFn:
    """Compile an expression; names in ``bound`` skip the unbound check."""
    if isinstance(expr, Const):
        return lambda env, sites, value=expr.value: value
    if isinstance(expr, Name):
        if expr.name in bound:
            return lambda env, sites, name=expr.name: env[name]

        def lookup(env, sites, name=expr.name, span=expr.span):
            try:
                return env[name]
            except KeyError:
                raise AnalysisError(f"unbound variable {name!r}", span)

        return lookup
    if isinstance(expr, BinOp):
        if expr.op in _ARITH:
            return _combine(_ARITH[expr.op], expr.left, expr.right, bound)
        if expr.op == "*" and not records_product(expr):
            return _combine(operator.mul, expr.left, expr.right, bound)
        left = _compile_expr(expr.left, bound)
        right = _compile_expr(expr.right, bound)
        if expr.op != "*":
            def unknown(env, sites, left=left, right=right, op=expr.op,
                        span=expr.span):
                left(env, sites), right(env, sites)
                raise AnalysisError(f"unknown operator {op!r}", span)

            return unknown

        def product(env, sites, left=left, right=right, at=expr.span.start):
            value = left(env, sites) * right(env, sites)
            if sites is not None:
                sites[at] = value
            return value

        return product
    return _raiser(
        lambda expr=expr: TypeError(f"unexpected expression node {expr!r}"))


def _compile_pred(pred: Pred, bound: frozenset[str]) -> PredFn:
    """Compile a predicate; names in ``bound`` skip the unbound check."""
    if isinstance(pred, BoolConst):
        return lambda env, sites, value=pred.value: value
    if isinstance(pred, Cmp):
        if pred.op not in _CMP:
            return _raiser(lambda op=pred.op: KeyError(op))
        return _combine(_CMP[pred.op], pred.left, pred.right, bound)
    if isinstance(pred, BoolOp):
        parts = tuple([_compile_pred(p, bound) for p in pred.parts])
        if pred.op == "&&":
            if len(parts) == 2:
                return lambda env, sites, a=parts[0], b=parts[1]: \
                    a(env, sites) and b(env, sites)
            return lambda env, sites, parts=parts: \
                all(p(env, sites) for p in parts)
        if len(parts) == 2:
            return lambda env, sites, a=parts[0], b=parts[1]: \
                a(env, sites) or b(env, sites)
        return lambda env, sites, parts=parts: \
            any(p(env, sites) for p in parts)
    if isinstance(pred, NotPred):
        return lambda env, sites, arg=_compile_pred(pred.arg, bound): \
            not arg(env, sites)
    return _raiser(
        lambda pred=pred: TypeError(f"unexpected predicate node {pred!r}"))


def _raiser(make: Callable[[], Exception]):
    """A compiled node that raises when it is evaluated, not compiled."""
    def fail(*args, make=make):
        raise make()

    return fail


def _out_of_fuel(fuel: int, span) -> OutOfFuel:
    return OutOfFuel(f"execution exceeded {fuel} steps at {span}")


# ---------------------------------------------------------------------------
# compilation of statements
# ---------------------------------------------------------------------------

class _Compiler:
    """Compiles one program's statements for one fuel budget and policy.

    Every statement closure first counts one step and raises
    :class:`OutOfFuel` past the budget, and every loop iteration counts
    one more, exactly as Figure 1's small-step reading does.
    """

    def __init__(self, program: Program, fuel: int, policy: HavocPolicy):
        self.fuel = fuel
        self.policy = policy
        # initialised for every run and never removed
        self.bound = frozenset(program.param_names()) | set(program.locals)
        self.overridden = type(policy).resolve is not HavocPolicy.resolve

    def block(self, block: Block) -> StmtFn:
        stmts = tuple([self.stmt(s) for s in block.body])
        if not stmts:
            return lambda env, res: None
        if len(stmts) == 1:
            return stmts[0]
        if len(stmts) == 2:
            def run2(env, res, a=stmts[0], b=stmts[1]):
                a(env, res)
                b(env, res)

            return run2

        def run(env, res, stmts=stmts):
            for stmt in stmts:
                stmt(env, res)

        return run

    def stmt(self, stmt: Stmt) -> StmtFn:
        fuel, span = self.fuel, stmt.span
        if isinstance(stmt, Assign):
            value = _compile_expr(stmt.value, self.bound)

            def assign(env, res, target=stmt.target, value=value, fuel=fuel,
                       span=span):
                steps = res.steps = res.steps + 1
                if steps > fuel:
                    raise _out_of_fuel(fuel, span)
                env[target] = value(env, res.site_values)

            return assign
        if isinstance(stmt, Havoc):
            return self.havoc(stmt)
        if isinstance(stmt, If):
            cond = _compile_pred(stmt.cond, self.bound)
            then, other = self.block(stmt.then_branch), \
                self.block(stmt.else_branch)

            def branch(env, res, cond=cond, then=then, other=other,
                       fuel=fuel, span=span):
                steps = res.steps = res.steps + 1
                if steps > fuel:
                    raise _out_of_fuel(fuel, span)
                if cond(env, res.site_values):
                    then(env, res)
                else:
                    other(env, res)

            return branch
        if isinstance(stmt, While):
            return self.loop(stmt)
        if isinstance(stmt, Block):
            inner = self.block(stmt)
        elif isinstance(stmt, Skip):
            inner = None
        elif isinstance(stmt, Assert):
            inner = _raiser(lambda span=span: AnalysisError(
                "assert may only appear as the final check", span))
        else:
            inner = _raiser(lambda stmt=stmt: TypeError(
                f"unexpected statement node {stmt!r}"))

        def other_stmt(env, res, inner=inner, fuel=fuel, span=span):
            steps = res.steps = res.steps + 1
            if steps > fuel:
                raise _out_of_fuel(fuel, span)
            if inner is not None:
                inner(env, res)

        return other_stmt

    def havoc(self, stmt: Havoc) -> StmtFn:
        if self.overridden:
            def sample(env, resolve=self.policy.resolve, stmt=stmt):
                return resolve(stmt, env)
        else:
            sample = self.policy._sampler(stmt, self.bound)

        def havoc(env, res, sample=sample, target=stmt.target,
                  at=stmt.span.start, fuel=self.fuel, span=stmt.span):
            steps = res.steps = res.steps + 1
            if steps > fuel:
                raise _out_of_fuel(fuel, span)
            value = sample(env)
            env[target] = value
            res.havoc_values.append(value)
            res.site_values[at] = value

        return havoc

    def loop(self, stmt: While) -> StmtFn:
        cond = _compile_pred(stmt.cond, self.bound)
        body = self.block(stmt.body)

        def loop(env, res, cond=cond, body=body, label=stmt.label,
                 fuel=self.fuel, span=stmt.span):
            steps = res.steps = res.steps + 1
            if steps > fuel:
                raise _out_of_fuel(fuel, span)
            sites = res.site_values
            while cond(env, sites):
                steps = res.steps = res.steps + 1
                if steps > fuel:
                    raise OutOfFuel(f"loop at {span} exceeded {fuel} steps")
                body(env, res)
            res.loop_exit_envs.setdefault(label, []).append(dict(env))

        return loop


class Interpreter:
    """Executes programs under the Figure 1 semantics.

    A program is compiled on its first run through an interpreter and
    the compiled form is reused for every later run of the same program
    object; havoc sites compiled for the default policy keep their SMT
    fallback memo for as long as the interpreter keeps the program.
    """

    def __init__(self, *, fuel: int = 200_000,
                 havoc_policy: HavocPolicy | None = None):
        self._fuel = fuel
        self._policy = havoc_policy or HavocPolicy()
        self._compiled: dict[int, tuple[Program, StmtFn, PredFn]] = {}

    def run(self, program: Program,
            inputs: Mapping[str, int] | Sequence[int]) -> ExecutionResult:
        """Run ``program`` on ``inputs``; returns the execution outcome.

        ``inputs`` is either a mapping from parameter names to values or a
        positional sequence.  Unsigned parameters reject negative values.
        """
        # the entry holds the program, so its id cannot be reused
        compiled = self._compiled.get(id(program))
        if compiled is None:
            compiler = _Compiler(program, self._fuel, self._policy)
            compiled = self._compiled[id(program)] = (
                program,
                compiler.block(program.body),
                _compile_pred(program.check.pred, compiler.bound),
            )
        _, body, check = compiled
        env = self._initial_env(program, inputs)
        result = ExecutionResult(ok=True, env=env, steps=0)
        body(env, result)
        result.ok = check(env, result.site_values)
        return result

    # ------------------------------------------------------------------
    def _initial_env(self, program: Program,
                     inputs: Mapping[str, int] | Sequence[int]
                     ) -> dict[str, int]:
        if not isinstance(inputs, Mapping):
            values = list(inputs)
            if len(values) != len(program.params):
                raise ValueError(
                    f"{program.name} expects {len(program.params)} inputs, "
                    f"got {len(values)}"
                )
            inputs = dict(zip(program.param_names(), values))
        env: dict[str, int] = {}
        for param in program.params:
            if param.name not in inputs:
                raise ValueError(f"missing input {param.name!r}")
            value = int(inputs[param.name])
            if param.unsigned and value < 0:
                raise ValueError(
                    f"unsigned parameter {param.name!r} got {value}"
                )
            env[param.name] = value
        for name in program.locals:
            env[name] = 0  # concrete semantics: locals start at 0
        return env


def run_program(program: Program,
                inputs: Mapping[str, int] | Sequence[int],
                **kwargs) -> ExecutionResult:
    """Convenience wrapper around :class:`Interpreter`."""
    return Interpreter(**kwargs).run(program, inputs)
