"""Patch splicing: apply structured edits to a program AST.

An :class:`Edit` is one concrete source change, of one of three
placement kinds:

* ``assume`` — conjoin a predicate onto the ``@assume`` of the ``havoc``
  that introduced the relevant abstraction variable (a missing library
  annotation);
* ``post`` — strengthen a loop's ``@post`` annotation (Ilinva-style
  invariant repair);
* ``guard`` — guard the final ``check(p)`` so the error cannot fire
  unless the abduced condition is violated: ``assert(!(Γ') || p)``.

:func:`apply_edits` rewrites the (frozen, immutable) AST structurally —
every node on the path to an edited statement is rebuilt, everything
else is shared — and raises :class:`SpliceError` if an edit's target
does not exist, so a stale plan can never silently produce the original
program back.  Splicing never touches concrete text: rendering the
result is :func:`repro.lang.printer.render_program`'s job, and the
repair tests assert ``parse(render(apply_edits(p, e))) ==
apply_edits(p, e)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..lang.ast import (
    Assert,
    Block,
    BoolOp,
    Havoc,
    If,
    NotPred,
    Pred,
    Program,
    Stmt,
    While,
)

__all__ = ["Edit", "SpliceError", "apply_edits", "conjoin"]


class SpliceError(ValueError):
    """An edit references a statement the program does not contain."""


@dataclass(frozen=True)
class Edit:
    """One structured source change.

    ``target`` identifies the havoc'd variable for ``assume`` edits,
    ``label`` the loop for ``post`` edits; ``span_start`` pins the exact
    havoc statement when the same variable is havocked twice.  ``line``
    is display metadata (the edited statement's source line).
    """

    kind: str                    # 'assume' | 'post' | 'guard'
    pred: Pred
    target: str | None = None    # havoc'd variable ('assume' edits)
    label: int | None = None     # loop label ('post' edits)
    span_start: int | None = None
    line: int = 0


def conjoin(old: Pred | None, new: Pred) -> Pred:
    """``old && new`` (or just ``new`` when there is nothing yet)."""
    if old is None:
        return new
    return BoolOp("&&", (old, new))


def _rewrite(stmt: Stmt, assumes: dict, posts: dict) -> Stmt:
    if isinstance(stmt, Havoc):
        for key in ((stmt.target, stmt.span.start), (stmt.target, None)):
            if key in assumes:
                preds = assumes.pop(key)
                assume = stmt.assume
                for pred in preds:
                    assume = conjoin(assume, pred)
                return Havoc(stmt.target, assume, stmt.span)
        return stmt
    if isinstance(stmt, While):
        body = _rewrite_block(stmt.body, assumes, posts)
        post = stmt.post
        if stmt.label in posts:
            for pred in posts.pop(stmt.label):
                post = conjoin(post, pred)
        if body is stmt.body and post is stmt.post:
            return stmt
        return While(stmt.cond, body, stmt.label, post, stmt.span)
    if isinstance(stmt, If):
        then_branch = _rewrite_block(stmt.then_branch, assumes, posts)
        else_branch = _rewrite_block(stmt.else_branch, assumes, posts)
        if then_branch is stmt.then_branch \
                and else_branch is stmt.else_branch:
            return stmt
        return If(stmt.cond, then_branch, else_branch, stmt.span)
    if isinstance(stmt, Block):
        return _rewrite_block(stmt, assumes, posts)
    return stmt


def _rewrite_block(block: Block, assumes: dict, posts: dict) -> Block:
    body = tuple(_rewrite(s, assumes, posts) for s in block.body)
    if all(new is old for new, old in zip(body, block.body)):
        return block
    return Block(body, block.span)


def apply_edits(program: Program, edits: Sequence[Edit]) -> Program:
    """Apply every edit; unmatched edits raise :class:`SpliceError`."""
    assumes: dict[tuple[str, int | None], list[Pred]] = {}
    posts: dict[int, list[Pred]] = {}
    guards: list[Pred] = []
    for edit in edits:
        if edit.kind == "assume":
            if edit.target is None:
                raise SpliceError("assume edit needs a havoc target")
            key = (edit.target, edit.span_start)
            assumes.setdefault(key, []).append(edit.pred)
        elif edit.kind == "post":
            if edit.label is None:
                raise SpliceError("post edit needs a loop label")
            posts.setdefault(edit.label, []).append(edit.pred)
        elif edit.kind == "guard":
            guards.append(edit.pred)
        else:
            raise SpliceError(f"unknown edit kind {edit.kind!r}")

    body = _rewrite_block(program.body, assumes, posts)
    if assumes:
        target, start = next(iter(assumes))
        raise SpliceError(
            f"no havoc of {target!r}"
            + (f" at offset {start}" if start is not None else "")
        )
    if posts:
        raise SpliceError(f"no loop labeled {next(iter(posts))}")

    check = program.check
    if guards:
        condition = guards[0]
        for extra in guards[1:]:
            condition = conjoin(condition, extra)
        check = Assert(
            BoolOp("||", (NotPred(condition), program.check.pred)),
            program.check.span,
        )
    return Program(
        name=program.name,
        params=program.params,
        locals=program.locals,
        body=body,
        check=check,
        span=program.span,
        source=None,  # the original text no longer describes this AST
    )
