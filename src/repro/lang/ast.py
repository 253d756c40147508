"""Abstract syntax for the paper's source language (Section 2), extended
with the Section 5 features exercised by the benchmark suite:

* general multiplication ``e1 * e2`` (non-linear products are abstracted
  by the analysis, as the paper's implementation does);
* ``havoc x [@assume(p)]`` — models calls to unanalyzed library functions
  whose result is unknown except for an optional postcondition;
* ``unsigned`` parameters — inputs known to be non-negative (the paper's
  running example relies on ``unsigned int n``).

Loops carry an optional ``@post`` annotation: the sound postcondition
produced by an external static analysis (Section 2's ``@p'``), or by the
interval/zone analyses of :mod:`repro.abstract`.

Nodes are frozen dataclasses with slots, one allocation each: every
report parses its own program, and frees it when the report is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

from .diagnostics import DUMMY_SPAN, Span


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class of integer expressions."""

    __slots__ = ()
    span: Span

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def variables(self) -> set[str]:
        return {n.name for n in self.walk() if isinstance(n, Name)}


@dataclass(frozen=True, slots=True)
class Name(Expr):
    name: str
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: int
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str  # '+', '-', '*'
    left: Expr
    right: Expr
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

class Pred:
    """Base class of boolean predicates."""

    __slots__ = ()
    span: Span

    def children(self) -> tuple["Pred | Expr", ...]:
        return ()

    def variables(self) -> set[str]:
        result: set[str] = set()
        stack: list[Pred | Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Name):
                result.add(node.name)
            stack.extend(node.children())
        return result


@dataclass(frozen=True, slots=True)
class BoolConst(Pred):
    value: bool
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, slots=True)
class Cmp(Pred):
    op: str  # '<', '>', '<=', '>=', '==', '!='
    left: Expr
    right: Expr
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def children(self) -> tuple[Pred | Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class BoolOp(Pred):
    op: str  # '&&' or '||'
    parts: tuple[Pred, ...]
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def children(self) -> tuple[Pred | Expr, ...]:
        return self.parts

    def __str__(self) -> str:
        sep = f" {self.op} "
        return "(" + sep.join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True, slots=True)
class NotPred(Pred):
    arg: Pred
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def children(self) -> tuple[Pred | Expr, ...]:
        return (self.arg,)

    def __str__(self) -> str:
        return f"!({self.arg})"


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class of statements."""

    __slots__ = ()
    span: Span

    def substatements(self) -> tuple["Stmt", ...]:
        return ()

    def walk(self) -> Iterator["Stmt"]:
        yield self
        for sub in self.substatements():
            yield from sub.walk()

    def map_blocks(self, fn: Callable[["Block"], "Block"]) -> "Stmt":
        """This statement with ``fn`` applied to each block it holds (see
        docs/INTERNALS.md, "the one rewriter"); a leaf returns itself."""
        return self


@dataclass(frozen=True, slots=True)
class Skip(Stmt):
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True, slots=True)
class Assign(Stmt):
    target: str
    value: Expr
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True, slots=True)
class Havoc(Stmt):
    """``havoc x [@assume(p)]`` — x receives an arbitrary value satisfying
    the optional assumption (modeling an unanalyzed library call)."""

    target: str
    assume: Pred | None = None
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True, slots=True)
class Block(Stmt):
    body: tuple[Stmt, ...]
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def substatements(self) -> tuple[Stmt, ...]:
        return self.body

    def map(self, fn: Callable[[Stmt], "Stmt | Sequence[Stmt]"]
            ) -> "Block":
        """Replace each statement with ``fn``'s result, one statement or
        a sequence of them; ``self`` when every statement comes back as
        itself, so an unchanged subtree is shared, not copied."""
        body: list[Stmt] = []
        for stmt in self.body:
            new = fn(stmt)
            if isinstance(new, Stmt):
                body.append(new)
            else:
                body.extend(new)
        if len(body) == len(self.body) and all(
                new is old for new, old in zip(body, self.body)):
            return self
        return replace(self, body=tuple(body))

    def map_blocks(self, fn: Callable[["Block"], "Block"]) -> "Block":
        return fn(self)


@dataclass(frozen=True, slots=True)
class If(Stmt):
    cond: Pred
    then_branch: Block
    else_branch: Block
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def substatements(self) -> tuple[Stmt, ...]:
        return (self.then_branch, self.else_branch)

    def map_blocks(self, fn: Callable[[Block], Block]) -> "If":
        then_branch, else_branch = fn(self.then_branch), fn(self.else_branch)
        if then_branch is self.then_branch \
                and else_branch is self.else_branch:
            return self
        return replace(self, then_branch=then_branch,
                       else_branch=else_branch)


@dataclass(frozen=True, slots=True)
class While(Stmt):
    """A while loop with a unique label and optional sound postcondition.

    ``post`` is the paper's ``@p'`` annotation: a predicate guaranteed to
    hold immediately after the loop, typically produced by an abstract
    interpreter.  The analysis constrains the loop's abstraction variables
    with it.
    """

    cond: Pred
    body: Block
    label: int
    post: Pred | None = None
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def substatements(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def map_blocks(self, fn: Callable[[Block], Block]) -> "While":
        body = fn(self.body)
        return self if body is self.body else replace(self, body=body)

    def modified_vars(self) -> set[str]:
        """Program variables assigned (or havocked) anywhere in the body."""
        result: set[str] = set()
        for stmt in self.body.walk():
            if isinstance(stmt, Assign):
                result.add(stmt.target)
            elif isinstance(stmt, Havoc):
                result.add(stmt.target)
        return result


@dataclass(frozen=True, slots=True)
class Assert(Stmt):
    """The program's ``check(p)``: the property under verification."""

    pred: Pred
    span: Span = field(default=DUMMY_SPAN, compare=False)


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Param:
    name: str
    unsigned: bool = False
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True, slots=True)
class Program:
    """``lambda a1..ak. (let v1..vn in (s; check(p)))``.

    ``body`` excludes the final assert, which is stored separately as
    ``check`` (mirroring the paper's program form).  Local variables are
    implicitly 0-initialized per the concrete semantics; ``var`` decls
    with initializers are sugar for declaration plus assignment.
    """

    name: str
    params: tuple[Param, ...]
    locals: tuple[str, ...]
    body: Block
    check: Assert
    span: Span = field(default=DUMMY_SPAN, compare=False)
    source: str | None = field(default=None, compare=False)

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def loops(self) -> list[While]:
        return [s for s in self.body.walk() if isinstance(s, While)]

    def loop_by_label(self, label: int) -> While:
        for loop in self.loops():
            if loop.label == label:
                return loop
        raise KeyError(f"no loop labeled {label}")
