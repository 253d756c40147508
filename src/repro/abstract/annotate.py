"""Automatic loop-postcondition annotation.

The paper assumes loop postconditions "obtained from any automatic sound
static analysis technique, such as abstract interpretation".  This module
is that technique: it runs the interval and/or zone abstract interpreters
over a program, computes a sound invariant for every loop (Kleene
iteration with delayed widening and one narrowing pass), and attaches the
facts about loop-modified variables as ``@post`` annotations.

Loops that already carry a manual ``@post`` are left untouched, so
hand-written annotations (as in the paper's examples) always win.  A
program whose every loop carries one has nothing to infer, and no
abstract interpreter runs over it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol

from ..lang.ast import (
    Assign,
    Block,
    BoolConst,
    BoolOp,
    Cmp,
    Const,
    Havoc,
    If,
    Name,
    Pred,
    Program,
    Skip,
    Stmt,
    While,
)
from .intervals import Interval, IntervalEnv, assume as interval_assume, \
    eval_interval, _negate
from .zones import Zone

_WIDEN_DELAY = 2
_MAX_ITER = 60


class Domain(Protocol):
    """The operations the generic abstract runner needs."""

    def initial(self, program: Program) -> object: ...
    def assign(self, state: object, name: str, expr) -> object: ...
    def havoc(self, state: object, name: str,
              assumption: Pred | None) -> object: ...
    def assume(self, state: object, pred: Pred) -> object: ...
    def join(self, a: object, b: object) -> object: ...
    def widen(self, a: object, b: object) -> object: ...
    def le(self, a: object, b: object) -> bool: ...
    def loop_facts(self, state: object, modified: set[str]) -> list[Pred]: ...


class IntervalDomain:
    """Adapter over :mod:`repro.abstract.intervals`."""

    def initial(self, program: Program) -> IntervalEnv:
        env = IntervalEnv()
        for param in program.params:
            env[param.name] = (
                Interval(0, None) if param.unsigned else Interval.TOP
            )
        for name in program.locals:
            env[name] = Interval.const(0)
        return env

    def assign(self, state: IntervalEnv, name: str, expr) -> IntervalEnv:
        result = state.copy()
        result[name] = eval_interval(expr, state)
        return result

    def havoc(self, state: IntervalEnv, name: str,
              assumption: Pred | None) -> IntervalEnv:
        result = state.copy()
        result[name] = Interval.TOP
        if assumption is not None:
            result = interval_assume(assumption, result)
        return result

    def assume(self, state: IntervalEnv, pred: Pred) -> IntervalEnv:
        return interval_assume(pred, state)

    def join(self, a: IntervalEnv, b: IntervalEnv) -> IntervalEnv:
        return a.join(b)

    def widen(self, a: IntervalEnv, b: IntervalEnv) -> IntervalEnv:
        return a.widen(b)

    def le(self, a: IntervalEnv, b: IntervalEnv) -> bool:
        return a.le(b)

    def loop_facts(self, state: IntervalEnv,
                   modified: set[str]) -> list[Pred]:
        if state.is_bottom:
            return [BoolConst(False)]
        facts: list[Pred] = []
        for name in sorted(modified):
            interval = state[name]
            if interval.lo is not None:
                facts.append(Cmp(">=", Name(name), Const(interval.lo)))
            if interval.hi is not None:
                facts.append(Cmp("<=", Name(name), Const(interval.hi)))
        return facts


class ZoneDomain:
    """Adapter over :mod:`repro.abstract.zones`."""

    def initial(self, program: Program) -> Zone:
        names = tuple(program.param_names()) + tuple(program.locals)
        zone = Zone.top(names)
        for param in program.params:
            if param.unsigned:
                zone.add_constraint(0, zone.index(param.name), 0)  # p >= 0
        for name in program.locals:
            i = zone.index(name)
            zone.add_constraint(i, 0, 0)
            zone.add_constraint(0, i, 0)
        return zone

    def assign(self, state: Zone, name: str, expr) -> Zone:
        result = state.copy()
        result.assign(name, expr)
        return result

    def havoc(self, state: Zone, name: str,
              assumption: Pred | None) -> Zone:
        result = state.copy()
        result.forget(name)
        if assumption is not None:
            result.assume(assumption)
        return result

    def assume(self, state: Zone, pred: Pred) -> Zone:
        result = state.copy()
        result.assume(pred)
        return result

    def join(self, a: Zone, b: Zone) -> Zone:
        return a.join(b)

    def widen(self, a: Zone, b: Zone) -> Zone:
        return a.widen(b)

    def le(self, a: Zone, b: Zone) -> bool:
        return a.le(b)

    def loop_facts(self, state: Zone, modified: set[str]) -> list[Pred]:
        return state.facts(only=modified)


DOMAINS: dict[str, type] = {
    "interval": IntervalDomain,
    "zone": ZoneDomain,
}


@dataclass
class _Runner:
    domain: Domain
    posts: dict[int, list[Pred]]

    def run(self, program: Program) -> None:
        state = self.domain.initial(program)
        self._block(program.body, state)

    def _block(self, block: Block, state: object) -> object:
        for stmt in block.body:
            state = self._stmt(stmt, state)
        return state

    def _stmt(self, stmt: Stmt, state: object) -> object:
        if isinstance(stmt, Skip):
            return state
        if isinstance(stmt, Assign):
            return self.domain.assign(state, stmt.target, stmt.value)
        if isinstance(stmt, Havoc):
            return self.domain.havoc(state, stmt.target, stmt.assume)
        if isinstance(stmt, Block):
            return self._block(stmt, state)
        if isinstance(stmt, If):
            then_state = self._block(
                stmt.then_branch, self.domain.assume(state, stmt.cond)
            )
            else_state = self._block(
                stmt.else_branch,
                self.domain.assume(state, _negate(stmt.cond)),
            )
            return self.domain.join(then_state, else_state)
        if isinstance(stmt, While):
            return self._while(stmt, state)
        raise TypeError(f"unexpected statement {stmt!r}")

    def _while(self, stmt: While, state: object) -> object:
        head = state
        for iteration in range(_MAX_ITER):
            body_in = self.domain.assume(head, stmt.cond)
            body_out = self._block(stmt.body, body_in)
            candidate = self.domain.join(state, body_out)
            if self.domain.le(candidate, head):
                break
            if iteration >= _WIDEN_DELAY:
                head = self.domain.widen(head, candidate)
            else:
                head = self.domain.join(head, candidate)
        else:  # pragma: no cover - widening guarantees termination
            raise RuntimeError("abstract loop iteration did not stabilize")

        # one narrowing pass: re-run the body from the stable head
        body_out = self._block(stmt.body, self.domain.assume(head, stmt.cond))
        narrowed = self.domain.join(state, body_out)
        if self.domain.le(narrowed, head):
            head = narrowed

        exit_state = self.domain.assume(head, _negate(stmt.cond))
        # Overwrite, never accumulate: a nested loop is re-analyzed on
        # every iteration of the enclosing fixpoint, and only the final
        # pass (under the enclosing loop's stable head) is sound for all
        # reachable contexts.
        self.posts[stmt.label] = self.domain.loop_facts(
            exit_state, stmt.modified_vars()
        )
        return exit_state


def _domain_classes(domains: tuple[str, ...]) -> list[type]:
    """The domain classes named by ``domains``; an unknown name raises
    ``ValueError`` whether or not any domain would run."""
    classes = []
    for name in domains:
        try:
            classes.append(DOMAINS[name])
        except KeyError:
            raise ValueError(f"unknown abstract domain {name!r}")
    return classes


def infer_loop_posts(program: Program,
                     domains: tuple[str, ...] = ("interval", "zone"),
                     ) -> dict[int, list[Pred]]:
    """Infer postcondition facts for every loop, keyed by loop label."""
    merged: dict[int, list[Pred]] = {}
    for domain_cls in _domain_classes(domains):
        runner = _Runner(domain_cls(), {})
        runner.run(program)
        for label, facts in runner.posts.items():
            merged.setdefault(label, []).extend(facts)
    return {
        label: _dedupe(facts) for label, facts in merged.items()
    }


def annotate_program(program: Program,
                     domains: tuple[str, ...] = ("interval", "zone"),
                     ) -> Program:
    """Return a copy of ``program`` with inferred ``@post`` annotations.

    Loops that already have a manual annotation keep it.  When every
    loop, at any depth, has one, ``program`` itself is returned and no
    domain runs.  Otherwise every domain runs over the whole program,
    annotated loops included: each loop's exit state feeds the facts
    inferred for the loops after it.
    """
    _domain_classes(domains)
    if all(loop.post is not None for loop in program.loops()):
        return program
    posts = infer_loop_posts(program, domains)

    def add_post(stmt: Stmt) -> Stmt:
        if isinstance(stmt, While) and stmt.post is None \
                and posts.get(stmt.label):
            facts = posts[stmt.label]
            stmt = replace(stmt, post=facts[0] if len(facts) == 1
                           else BoolOp("&&", tuple(facts)))
        return stmt.map_blocks(lambda b: b.map(add_post))

    return replace(program, body=program.body.map(add_post))


def _dedupe(facts: list[Pred]) -> list[Pred]:
    seen: set[str] = set()
    result: list[Pred] = []
    for fact in facts:
        key = str(fact)
        if key not in seen:
            seen.add(key)
            result.append(fact)
    return result
