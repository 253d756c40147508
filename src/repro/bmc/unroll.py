"""Bounded loop unrolling.

Transforms a program into a loop-free one that exactly simulates every
execution with at most ``k`` iterations per loop visit, and *detects*
executions that would need more:

* each ``while (c) { s }`` becomes ``k`` nested ``if (c) { s ... }``
  levels, with an innermost ``if (c) { $ovfL = 1; }`` marking bound
  overflow;
* after the unrolled construct, every loop-modified variable ``v`` is
  snapshotted into a fresh local ``$exitL_v`` — the exact value of ``v``
  at the loop's exit point, which is what the original analysis's loop
  abstraction variables denote.

Because the Section 3 analysis is exact on loop-free code, analyzing the
unrolled program yields an *exact* symbolic characterization of all
bounded executions — the static underapproximation the paper's Section 8
proposes for deciding queries automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..lang.ast import (
    Assign,
    Block,
    Const,
    If,
    Name,
    Program,
    Stmt,
    While,
)


@dataclass(frozen=True)
class UnrollInfo:
    """Metadata tying unrolled artifacts back to the original loops."""

    bound: int
    overflow_vars: dict[int, str]       # loop label -> $ovfL
    snapshot_vars: dict[tuple[int, str], str]  # (label, var) -> $exitL_v


def unroll_program(program: Program, bound: int) -> tuple[Program, UnrollInfo]:
    """Unroll every loop ``bound`` times; returns the loop-free program
    plus the bookkeeping needed to interpret its results.

    One :meth:`~repro.lang.ast.Block.map` visitor replaces each loop,
    inner loops first; the new locals are known once the body is built.
    """
    if bound < 0:
        raise ValueError("unroll bound must be non-negative")
    overflow_vars: dict[int, str] = {}
    snapshot_vars: dict[tuple[int, str], str] = {}
    new_locals: list[str] = []

    def unroll(loop: Stmt) -> Stmt | list[Stmt]:
        if not isinstance(loop, While):
            return loop.map_blocks(lambda b: b.map(unroll))
        body = loop.body.map(unroll)
        label = loop.label

        ovf = f"$ovf{label}"
        if label not in overflow_vars:
            overflow_vars[label] = ovf
            new_locals.append(ovf)

        # innermost level: the bound was not enough
        nested: Stmt = If(
            loop.cond,
            Block((Assign(ovf, Const(1), loop.span),), loop.span),
            Block((), loop.span),
            loop.span,
        )
        for _ in range(bound):
            nested = If(
                loop.cond,
                Block(body.body + (nested,), loop.span),
                Block((), loop.span),
                loop.span,
            )

        snapshots: list[Stmt] = []
        for name in sorted(loop.modified_vars()):
            snap = f"$exit{label}_{name}"
            if (label, name) not in snapshot_vars:
                snapshot_vars[(label, name)] = snap
                new_locals.append(snap)
            snapshots.append(Assign(snap, Name(name), loop.span))
        return [nested, *snapshots]

    body = program.body.map(unroll)
    unrolled = replace(program, name=f"{program.name}$unrolled{bound}",
                       locals=program.locals + tuple(new_locals), body=body)
    return unrolled, UnrollInfo(bound, overflow_vars, snapshot_vars)
