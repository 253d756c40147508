"""Symbolic value sets and stores (Figures 2–4 of the paper).

A program variable's value is a *symbolic value set* — a set of pairs
``(pi, phi)`` where ``pi`` is a symbolic expression (a linear term over
input and abstraction variables) and ``phi`` is the path constraint under
which the variable takes that value.  On loop-free code this
representation is exact: the guards of a well-formed value set partition
the state space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..logic.formulas import TRUE, Formula, conj, disj
from ..logic.terms import LinTerm, Var


@dataclass(frozen=True)
class ValueSet:
    """A symbolic value set ``{(pi_1, phi_1), ..., (pi_k, phi_k)}``."""

    entries: tuple[tuple[LinTerm, Formula], ...]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def of(entries: Iterable[tuple[LinTerm, Formula]]) -> "ValueSet":
        pruned = tuple(
            (pi, phi) for pi, phi in entries if not phi.is_false
        )
        return ValueSet(pruned)

    @staticmethod
    def constant(value: int) -> "ValueSet":
        return ValueSet(((LinTerm.constant(value), TRUE),))

    @staticmethod
    def term(term: LinTerm) -> "ValueSet":
        return ValueSet(((term, TRUE),))

    @staticmethod
    def var(v: Var) -> "ValueSet":
        return ValueSet(((LinTerm.var(v), TRUE),))

    def __iter__(self) -> Iterator[tuple[LinTerm, Formula]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # Figure 2: operations on symbolic value sets
    # ------------------------------------------------------------------
    def combine(self, other: "ValueSet",
                op: Callable[[LinTerm, LinTerm], LinTerm]) -> "ValueSet":
        """Pointwise arithmetic: cross product of entries, guards conjoined."""
        result = []
        for pi1, phi1 in self.entries:
            for pi2, phi2 in other.entries:
                guard = conj(phi1, phi2)
                if guard.is_false:
                    continue
                result.append((op(pi1, pi2), guard))
        return ValueSet.of(_merge_equal_terms(result))

    def add(self, other: "ValueSet") -> "ValueSet":
        return self.combine(other, lambda a, b: a + b)

    def sub(self, other: "ValueSet") -> "ValueSet":
        return self.combine(other, lambda a, b: a - b)

    def negate(self) -> "ValueSet":
        return ValueSet.of((-pi, phi) for pi, phi in self.entries)

    def scale(self, factor: int) -> "ValueSet":
        return ValueSet.of(
            (pi.scale(factor), phi) for pi, phi in self.entries
        )

    def compare(self, other: "ValueSet",
                builder: Callable[[LinTerm, LinTerm], Formula]) -> Formula:
        """Figure 2's comparison rule: a constraint describing when the
        comparison holds, as a disjunction over entry pairs."""
        parts = []
        for pi1, phi1 in self.entries:
            for pi2, phi2 in other.entries:
                parts.append(conj(builder(pi1, pi2), phi1, phi2))
        return disj(*parts)

    def guard(self, phi: Formula) -> "ValueSet":
        """Figure 2's third rule: conjoin ``phi`` onto every guard."""
        if phi.is_true:
            return self
        if phi.is_false:
            return ValueSet(())
        return ValueSet.of(
            (pi, conj(g, phi)) for pi, g in self.entries
        )

    def join(self, other: "ValueSet") -> "ValueSet":
        """The paper's exact join: same term merges guards with ``or``."""
        merged: dict[LinTerm, Formula] = {}
        order: list[LinTerm] = []
        for pi, phi in list(self.entries) + list(other.entries):
            if pi in merged:
                merged[pi] = disj(merged[pi], phi)
            else:
                merged[pi] = phi
                order.append(pi)
        return ValueSet.of((pi, merged[pi]) for pi in order)

    # ------------------------------------------------------------------
    def variables(self) -> frozenset[Var]:
        result: frozenset[Var] = frozenset()
        for pi, phi in self.entries:
            result |= pi.variables | phi.free_vars()
        return result

    def __str__(self) -> str:
        inner = ", ".join(f"({pi}, {phi})" for pi, phi in self.entries)
        return "{" + inner + "}"


def _merge_equal_terms(
    entries: list[tuple[LinTerm, Formula]]
) -> list[tuple[LinTerm, Formula]]:
    merged: dict[LinTerm, Formula] = {}
    order: list[LinTerm] = []
    for pi, phi in entries:
        if pi in merged:
            merged[pi] = disj(merged[pi], phi)
        else:
            merged[pi] = phi
            order.append(pi)
    return [(pi, merged[pi]) for pi in order]


class Store(dict):
    """A symbolic store: program variable name -> :class:`ValueSet`.

    Figures 2 and 5's store operations (conjunction with a constraint and
    the exact join) are methods here.
    """

    def guard(self, phi: Formula) -> "Store":
        return Store({name: vs.guard(phi) for name, vs in self.items()})

    def join(self, other: "Store") -> "Store":
        result = Store()
        for name in set(self) | set(other):
            left = self.get(name, ValueSet(()))
            right = other.get(name, ValueSet(()))
            result[name] = left.join(right)
        return result

    def copy(self) -> "Store":
        return Store(self)
