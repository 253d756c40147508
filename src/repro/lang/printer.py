"""Canonical source rendering for the paper's language.

:func:`render_program` is the inverse of :func:`repro.lang.parse_program`
up to structural equality: ``parse_program(render_program(p)) == p`` for
every well-formed :class:`~repro.lang.ast.Program` whose loops are
labelled in source order (AST spans are ``compare=False``, so re-parsed
positions do not matter).  Rendering prints no labels, so the re-parse
numbers loops in source order; the inliner numbers the loops it inlines
after every loop the source spells out, so a program that calls a
``proc`` containing a loop comes back with other labels.  The round trip
is what makes patch splicing (:mod:`repro.repair`) sound end-to-end — a spliced AST can be rendered, re-parsed, re-annotated and
re-analyzed by the exact front-end the original program went through,
and the repair tests assert it under hypothesis.

The rendering is canonical, not source-preserving: declarations are
hoisted into one ``var`` line, initializer sugar is expanded, operator
precedence decides parentheses.  Diffs produced by the repair layer
therefore compare two *canonical* renderings, so an edit shows up as
exactly the lines it changed.

Limitations, by design: ``Const`` nodes must be non-negative (the
grammar has no negative literals — unary minus parses as ``0 - e``) and
bare ``Block``/``Assert`` statements cannot appear inside a body (the
grammar cannot express them there).  Both raise :class:`ValueError`.
"""

from __future__ import annotations

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

__all__ = ["render_expr", "render_pred", "render_program", "render_stmt"]

_INDENT = "    "

# precedence tiers of the expression grammar: additive < multiplicative
_ADD, _MUL = 1, 2


def render_expr(expr: Expr, *, min_prec: int = 0) -> str:
    """Render an integer expression with minimal parentheses."""
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Const):
        if expr.value < 0:
            raise ValueError(
                f"cannot render negative literal {expr.value} "
                "(the grammar has no negative constants; "
                "use BinOp('-', Const(0), ...) instead)"
            )
        return str(expr.value)
    if isinstance(expr, BinOp):
        prec = _MUL if expr.op == "*" else _ADD
        left = render_expr(expr.left, min_prec=prec)
        # the parser folds left-associatively, so the right operand of
        # an equal-precedence chain needs parentheses to survive
        right = render_expr(expr.right, min_prec=prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < min_prec:
            return f"({text})"
        return text
    raise ValueError(f"cannot render expression {expr!r}")


def render_pred(pred: Pred) -> str:
    """Render a predicate; nested boolean structure is parenthesized so
    the parse tree (not just the truth table) survives the round trip."""
    if isinstance(pred, BoolConst):
        return "true" if pred.value else "false"
    if isinstance(pred, Cmp):
        return f"{render_expr(pred.left)} {pred.op} {render_expr(pred.right)}"
    if isinstance(pred, NotPred):
        return f"!({render_pred(pred.arg)})"
    if isinstance(pred, BoolOp):
        sep = f" {pred.op} "
        parts = [
            f"({render_pred(part)})" if isinstance(part, BoolOp)
            else render_pred(part)
            for part in pred.parts
        ]
        return sep.join(parts)
    raise ValueError(f"cannot render predicate {pred!r}")


def render_stmt(stmt: Stmt, *, indent: int = 0) -> list[str]:
    """Render one statement as indented source lines."""
    pad = _INDENT * indent
    if isinstance(stmt, Skip):
        return [f"{pad}skip;"]
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.target} = {render_expr(stmt.value)};"]
    if isinstance(stmt, Havoc):
        if stmt.assume is None:
            return [f"{pad}havoc {stmt.target};"]
        return [f"{pad}havoc {stmt.target} "
                f"@assume({render_pred(stmt.assume)});"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({render_pred(stmt.cond)}) {{"]
        lines.extend(_render_body(stmt.then_branch, indent + 1))
        if stmt.else_branch.body:
            lines.append(f"{pad}}} else {{")
            lines.extend(_render_body(stmt.else_branch, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({render_pred(stmt.cond)}) {{"]
        lines.extend(_render_body(stmt.body, indent + 1))
        close = f"{pad}}}"
        if stmt.post is not None:
            close += f" @post({render_pred(stmt.post)})"
        lines.append(close)
        return lines
    if isinstance(stmt, Assert):
        return [f"{pad}assert({render_pred(stmt.pred)});"]
    raise ValueError(
        f"cannot render a bare {type(stmt).__name__} statement "
        "(the grammar has no syntax for it here)"
    )


def _render_body(block: Block, indent: int) -> list[str]:
    lines: list[str] = []
    for stmt in block.body:
        lines.extend(render_stmt(stmt, indent=indent))
    return lines


def render_program(program: Program) -> str:
    """Render a program as canonical, re-parseable source text."""
    params = ", ".join(
        f"unsigned {p.name}" if p.unsigned else p.name
        for p in program.params
    )
    lines = [f"program {program.name}({params}) {{"]
    if program.locals:
        lines.append(f"{_INDENT}var {', '.join(program.locals)};")
    lines.extend(_render_body(program.body, 1))
    lines.extend(render_stmt(program.check, indent=1))
    lines.append("}")
    return "\n".join(lines) + "\n"
