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
Procedures may call other procedures; (mutual) recursion is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    def __init__(self, module: Module, source: str | None):
        self._module = module
        self._source = source
        self._counter = 0
        self._extra_locals: list[str] = []
        labels = [
            s.label
            for s in module.program.body.walk()
            if isinstance(s, While)
        ]
        for proc in module.procs:
            labels.extend(
                s.label for s in proc.body.walk() if isinstance(s, While)
            )
        self._next_label = max(labels, default=0)

    def inline_program(self) -> Program:
        program = self._module.program
        body = self._inline_block(program.body, frozenset())
        return Program(
            name=program.name,
            params=program.params,
            locals=program.locals + tuple(self._extra_locals),
            body=body,
            check=program.check,
            span=program.span,
            source=program.source,
        )

    # ------------------------------------------------------------------
    def _inline_block(self, block: Block,
                      stack: frozenset[str]) -> Block:
        statements: list[Stmt] = []
        for stmt in block.body:
            statements.extend(self._inline_stmt(stmt, stack))
        return Block(tuple(statements), block.span)

    def _inline_stmt(self, stmt: Stmt,
                     stack: frozenset[str]) -> list[Stmt]:
        if isinstance(stmt, CallStmt):
            return self._expand_call(stmt, stack)
        if isinstance(stmt, If):
            return [If(
                stmt.cond,
                self._inline_block(stmt.then_branch, stack),
                self._inline_block(stmt.else_branch, stack),
                stmt.span,
            )]
        if isinstance(stmt, While):
            return [While(
                stmt.cond,
                self._inline_block(stmt.body, stack),
                stmt.label,
                stmt.post,
                stmt.span,
            )]
        if isinstance(stmt, Block):
            return [self._inline_block(stmt, stack)]
        return [stmt]

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

        self._counter += 1
        rename = {
            name: f"{name}${proc.name}{self._counter}"
            for name in proc.params + proc.locals
        }
        self._extra_locals.extend(rename.values())

        statements: list[Stmt] = [
            Assign(rename[param], arg, stmt.span)
            for param, arg in zip(proc.params, stmt.args)
        ]
        renamed_body = _rename_block(proc.body, rename)
        renamed_body = self._relabel_block(renamed_body)
        inner_stack = stack | {proc.name}
        statements.extend(
            self._inline_block(renamed_body, inner_stack).body
        )
        statements.append(
            Assign(stmt.target, _rename_expr(proc.result, rename),
                   stmt.span)
        )
        return statements


    def _relabel_block(self, block: Block) -> Block:
        """Give each inlined copy of a loop a fresh unique label."""
        statements: list[Stmt] = []
        for stmt in block.body:
            statements.append(self._relabel_stmt(stmt))
        return Block(tuple(statements), block.span)

    def _relabel_stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, While):
            self._next_label += 1
            return While(stmt.cond, self._relabel_block(stmt.body),
                         self._next_label, stmt.post, stmt.span)
        if isinstance(stmt, If):
            return If(stmt.cond, self._relabel_block(stmt.then_branch),
                      self._relabel_block(stmt.else_branch), stmt.span)
        if isinstance(stmt, Block):
            return self._relabel_block(stmt)
        return stmt


def inline_module(module: Module) -> Program:
    """Inline every call; returns a core-language program."""
    return _Inliner(module, module.program.source).inline_program()


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


def _rename_block(block: Block, rename: dict[str, str]) -> Block:
    return Block(
        tuple(_rename_stmt(s, rename) for s in block.body), block.span
    )


def _rename_stmt(stmt: Stmt, rename: dict[str, str]) -> Stmt:
    if isinstance(stmt, Skip):
        return stmt
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
    if isinstance(stmt, Block):
        return _rename_block(stmt, rename)
    if isinstance(stmt, If):
        return If(_rename_pred(stmt.cond, rename),
                  _rename_block(stmt.then_branch, rename),
                  _rename_block(stmt.else_branch, rename), stmt.span)
    if isinstance(stmt, While):
        post = (_rename_pred(stmt.post, rename)
                if stmt.post is not None else None)
        return While(_rename_pred(stmt.cond, rename),
                     _rename_block(stmt.body, rename),
                     stmt.label, post, stmt.span)
    raise TypeError(f"unexpected statement {stmt!r}")
