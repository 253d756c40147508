"""Procedures and call inlining.

The paper's implementation is interprocedural (summary-based, in
Compass); the formal language omits calls as "orthogonal".  This module
adds the mid-point that keeps the formalism intact: programs may define
helper procedures, and calls are *inlined* before analysis, so the
analysis and the interpreter only ever see the core language.

Syntax::

    proc clamp(lo, hi, v) {
      var r;
      r = v;
      if (r < lo) { r = lo; }
      if (r > hi) { r = hi; }
      return r;
    }

    program main(x) {
      var y;
      y = call clamp(0, 10, x);
      assert(y >= 0 && y <= 10);
    }

Calls appear only as whole assignments (``target = call f(args);``).
Procedures may call other procedures; (mutual) recursion is rejected,
and so is an ``assert`` in a procedure body.

Inlining is a :meth:`~repro.lang.ast.Block.map` visitor that renames
a callee's variables ``name$procN`` (``N`` the first call number whose
names the module does not declare) and gives each inlined loop a fresh
label.  A program with no call comes back as the parsed object itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .ast import (
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
from .diagnostics import DUMMY_SPAN, ParseError, Span


@dataclass(frozen=True, slots=True)
class CallStmt(Stmt):
    """``target = call proc(args);`` — eliminated by inlining."""

    target: str
    proc: str
    args: tuple[Expr, ...]
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Proc:
    """A helper procedure with a single trailing ``return``."""

    name: str
    params: tuple[str, ...]
    locals: tuple[str, ...]
    body: Block
    result: Expr
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Module:
    """Zero or more procedures plus the main program."""

    procs: tuple[Proc, ...]
    program: Program

    def proc_by_name(self, name: str) -> Proc:
        for proc in self.procs:
            if proc.name == name:
                return proc
        raise KeyError(name)


class _Inliner:
    def __init__(self, module: Module):
        program = module.program
        self._module = module
        self._source = program.source
        self._counter = 0
        self._extra_locals: list[str] = []
        # every name the module declares, and every name made so far
        self._taken = set(program.param_names()) | set(program.locals)
        labels = [loop.label for loop in program.loops()]
        for proc in module.procs:
            self._taken.update(proc.params + proc.locals)
            labels.extend(
                s.label for s in proc.body.walk() if isinstance(s, While)
            )
        self._next_label = max(labels, default=0)

    def inline_program(self) -> Program:
        program = self._module.program
        body = self._inline(program.body, frozenset())
        if body is program.body:
            return program
        return replace(program, body=body,
                       locals=program.locals + tuple(self._extra_locals))

    # ------------------------------------------------------------------
    def _inline(self, block: Block, stack: frozenset[str]) -> Block:
        def visit(stmt: Stmt) -> Stmt | list[Stmt]:
            if isinstance(stmt, CallStmt):
                return self._expand_call(stmt, stack)
            return stmt.map_blocks(lambda b: b.map(visit))
        return block.map(visit)

    def _expand_call(self, stmt: CallStmt,
                     stack: frozenset[str]) -> list[Stmt]:
        try:
            proc = self._module.proc_by_name(stmt.proc)
        except KeyError:
            raise ParseError(
                f"call to undefined procedure {stmt.proc!r}",
                stmt.span, self._source,
            )
        if proc.name in stack:
            raise ParseError(
                f"recursive call to {proc.name!r} (recursion is not "
                f"supported; inline bounded iterations manually)",
                stmt.span, self._source,
            )
        if len(stmt.args) != len(proc.params):
            raise ParseError(
                f"{proc.name!r} expects {len(proc.params)} arguments, "
                f"got {len(stmt.args)}",
                stmt.span, self._source,
            )

        rename = self._fresh_names(proc)
        body = proc.body.map(lambda s: _rename_stmt(s, rename))
        body = body.map(self._relabel)
        return [
            *(Assign(rename[param], arg, stmt.span)
              for param, arg in zip(proc.params, stmt.args)),
            *self._inline(body, stack | {proc.name}).body,
            Assign(stmt.target, _rename_expr(proc.result, rename),
                   stmt.span),
        ]

    def _fresh_names(self, proc: Proc) -> dict[str, str]:
        while True:
            self._counter += 1
            rename = {
                name: f"{name}${proc.name}{self._counter}"
                for name in proc.params + proc.locals
            }
            if self._taken.isdisjoint(rename.values()):
                break
        self._taken.update(rename.values())
        self._extra_locals.extend(rename.values())
        return rename

    def _relabel(self, stmt: Stmt) -> Stmt:
        """Give each inlined copy of a loop a fresh unique label, an
        enclosing loop before the loops in its body."""
        if isinstance(stmt, While):
            self._next_label += 1
            stmt = replace(stmt, label=self._next_label)
        return stmt.map_blocks(lambda b: b.map(self._relabel))


def inline_module(module: Module) -> Program:
    """Inline every call; returns a core-language program (the parsed
    program itself when it makes no call)."""
    return _Inliner(module).inline_program()


# ---------------------------------------------------------------------------
# renaming helpers
# ---------------------------------------------------------------------------

def _rename_expr(expr: Expr, rename: dict[str, str]) -> Expr:
    if isinstance(expr, Name):
        return Name(rename.get(expr.name, expr.name), expr.span)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _rename_expr(expr.left, rename),
                     _rename_expr(expr.right, rename), expr.span)
    raise TypeError(f"unexpected expression {expr!r}")


def _rename_pred(pred: Pred, rename: dict[str, str]) -> Pred:
    if isinstance(pred, BoolConst):
        return pred
    if isinstance(pred, Cmp):
        return Cmp(pred.op, _rename_expr(pred.left, rename),
                   _rename_expr(pred.right, rename), pred.span)
    if isinstance(pred, BoolOp):
        return BoolOp(pred.op,
                      tuple(_rename_pred(p, rename) for p in pred.parts),
                      pred.span)
    if isinstance(pred, NotPred):
        return NotPred(_rename_pred(pred.arg, rename), pred.span)
    raise TypeError(f"unexpected predicate {pred!r}")


def _rename_stmt(stmt: Stmt, rename: dict[str, str]) -> Stmt:
    if isinstance(stmt, Assign):
        return Assign(rename.get(stmt.target, stmt.target),
                      _rename_expr(stmt.value, rename), stmt.span)
    if isinstance(stmt, Havoc):
        assume = (_rename_pred(stmt.assume, rename)
                  if stmt.assume is not None else None)
        return Havoc(rename.get(stmt.target, stmt.target), assume,
                     stmt.span)
    if isinstance(stmt, CallStmt):
        return CallStmt(
            rename.get(stmt.target, stmt.target),
            stmt.proc,
            tuple(_rename_expr(a, rename) for a in stmt.args),
            stmt.span,
        )
    if isinstance(stmt, If):
        stmt = replace(stmt, cond=_rename_pred(stmt.cond, rename))
    elif isinstance(stmt, While):
        post = (_rename_pred(stmt.post, rename)
                if stmt.post is not None else None)
        stmt = replace(stmt, cond=_rename_pred(stmt.cond, rename),
                       post=post)
    elif not isinstance(stmt, (Skip, Block)):
        raise TypeError(f"unexpected statement {stmt!r}")
    return stmt.map_blocks(
        lambda b: b.map(lambda s: _rename_stmt(s, rename)))
