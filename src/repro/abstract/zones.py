"""Zone (difference-bound matrix) abstract interpretation.

Zones track constraints of the form ``x - y <= c``, ``x <= c`` and
``x >= c`` — exactly the relational facts the paper's examples need from
the external analysis (``i > n`` after the loop in Section 1.1 is the
zone fact ``n - i <= -1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..lang.ast import (
    BinOp,
    BoolConst,
    BoolOp,
    Cmp,
    Const,
    Expr,
    Name,
    NotPred,
    Pred,
)
from ..logic.terms import LinTerm, Var

_INF = None  # bound representation: None is +infinity


def _badd(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a + b


def _ble(a: int | None, b: int | None) -> bool:
    """a <= b with None = +inf."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


@dataclass
class Zone:
    """A DBM over ``names`` plus the implicit zero variable (index 0).

    ``m[i][j]`` bounds ``v_i - v_j <= m[i][j]``; index 0 denotes the
    constant 0, so ``m[i][0]`` is an upper bound and ``m[0][i]`` a negated
    lower bound.

    ``closed`` records that ``m`` is its own Floyd–Warshall closure (and
    so not empty), which lets ``join``, ``le``, ``forget`` and ``facts``
    skip re-closing.  Closure is unique, so the flag changes no result:
    it is set by :meth:`close`, kept by ``copy``, ``join``, ``forget``
    and the ``x := x + c`` shift, and kept by :meth:`add_constraint`
    through incremental closure; ``widen`` results are not closed.
    """

    names: tuple[str, ...]
    m: list[list[int | None]] = field(default_factory=list)
    bottom: bool = False
    closed: bool = False

    def __post_init__(self) -> None:
        if not self.m:
            n = len(self.names) + 1
            self.m = [
                [0 if i == j else _INF for j in range(n)] for i in range(n)
            ]
            self.closed = True  # top is closed
        self._index = {name: i for i, name in enumerate(self.names, 1)}
        self._terms: dict[str, LinTerm] | None = None

    # ------------------------------------------------------------------
    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"{name!r} is not tracked by this zone")

    def copy(self) -> "Zone":
        return self._with([row[:] for row in self.m], self.closed,
                          self.bottom)

    def _with(self, m: list[list[int | None]], closed: bool,
              bottom: bool = False) -> "Zone":
        """A zone over the same names with matrix ``m``, sharing this
        zone's name tables."""
        zone = Zone.__new__(Zone)
        zone.names = self.names
        zone.m = m
        zone.bottom = bottom
        zone.closed = closed
        zone._index = self._index
        zone._terms = self._terms
        return zone

    @staticmethod
    def top(names: Iterable[str]) -> "Zone":
        return Zone(tuple(names))

    def close(self) -> "Zone":
        """Floyd–Warshall closure; detects emptiness."""
        if self.bottom or self.closed:
            return self
        m = self.m
        n = len(m)
        for k in range(n):
            row_k = m[k]
            for i in range(n):
                row_i = m[i]
                ik = row_i[k]
                if ik is None:
                    continue
                for j in range(n):
                    kj = row_k[j]
                    if kj is not None:
                        through = ik + kj
                        ij = row_i[j]
                        if ij is None or through < ij:
                            row_i[j] = through
        for i in range(n):
            if m[i][i] is not None and m[i][i] < 0:
                self.bottom = True
                break
        else:
            self.closed = True
        return self

    def _closed(self) -> "Zone":
        """This zone if closed, else a closed copy (operands stay raw:
        ``widen`` reads its operands' matrices as they are)."""
        return self if self.closed else self.copy().close()

    # ------------------------------------------------------------------
    # lattice
    # ------------------------------------------------------------------
    def join(self, other: "Zone") -> "Zone":
        if self.bottom:
            return other.copy()
        if other.bottom:
            return self.copy()
        a, b = self._closed(), other._closed()
        if a.bottom:
            return b if b is not other else b.copy()
        if b.bottom:
            return a if a is not self else a.copy()
        # the pointwise max of closed DBMs is closed
        return self._with([
            [None if x is None or y is None else (x if x > y else y)
             for x, y in zip(row_a, row_b)]
            for row_a, row_b in zip(a.m, b.m)
        ], closed=True)

    def widen(self, other: "Zone") -> "Zone":
        """Standard DBM widening: drop bounds the new state exceeds."""
        if self.bottom:
            return other.copy()
        if other.bottom:
            return self.copy()
        return self._with([
            [x if _ble(y, x) else _INF for x, y in zip(row_s, row_o)]
            for row_s, row_o in zip(self.m, other.m)
        ], closed=False)

    def le(self, other: "Zone") -> bool:
        a = self._closed()
        if a.bottom:
            return True
        if other.bottom:
            return False
        return all(
            _ble(x, y)
            for row_a, row_o in zip(a.m, other.m)
            for x, y in zip(row_a, row_o)
        )

    # ------------------------------------------------------------------
    # transfer functions
    # ------------------------------------------------------------------
    def forget(self, name: str) -> None:
        self.close()
        if self.bottom:
            return
        i = self.index(name)
        n = len(self.m)
        for j in range(n):
            if j != i:
                self.m[i][j] = _INF
                self.m[j][i] = _INF

    def add_constraint(self, i: int, j: int, c: int) -> None:
        """Record ``v_i - v_j <= c``.

        On a closed zone this is Miné's O(n²) incremental closure, which
        keeps it closed.  A constraint that empties a closed zone is
        recorded as is, and the next full closure finds the emptiness.
        """
        m = self.m
        old = m[i][j]
        if old is not None and old <= c:
            return
        m[i][j] = c
        if not self.closed:
            return
        ji = m[j][i]
        if ji is not None and ji + c < 0:
            self.closed = False
            return
        row_j = m[j]
        for row_a in m:
            ai = row_a[i]
            if ai is None:
                continue
            via = ai + c
            for b, jb in enumerate(row_j):
                if jb is not None:
                    through = via + jb
                    ab = row_a[b]
                    if ab is None or through < ab:
                        row_a[b] = through

    def assign(self, name: str, expr: Expr) -> None:
        """x := e, exactly for ``c``, ``y + c``, ``x + c``; else forget."""
        if self.bottom:
            return
        form = _difference_form(expr)
        i = self.index(name)
        if form is None:
            self.forget(name)
            return
        other, c = form
        if other is None:
            self.forget(name)
            self.add_constraint(i, 0, c)
            self.add_constraint(0, i, -c)
        elif other == name:
            # x := x + c: translate all bounds through the shift
            self.close()
            if self.bottom:
                return
            n = len(self.m)
            for j in range(n):
                if j != i:
                    self.m[i][j] = _badd(self.m[i][j], c)
                    self.m[j][i] = _badd(self.m[j][i], -c)
        else:
            k = self.index(other)
            self.forget(name)
            self.add_constraint(i, k, c)
            self.add_constraint(k, i, -c)

    def assume(self, pred: Pred) -> None:
        """Refine with the difference constraints extractable from pred."""
        if self.bottom:
            return
        if isinstance(pred, BoolConst):
            if not pred.value:
                self.bottom = True
            return
        if isinstance(pred, NotPred):
            self.assume(_negate(pred.arg))
            return
        if isinstance(pred, BoolOp):
            if pred.op == "&&":
                for part in pred.parts:
                    self.assume(part)
                return
            # disjunction: join of the refined branches
            branches = []
            for part in pred.parts:
                branch = self.copy()
                branch.assume(part)
                branches.append(branch)
            joined = branches[0]
            for branch in branches[1:]:
                joined = joined.join(branch)
            self.m = joined.m
            self.bottom = joined.bottom
            self.closed = joined.closed
            return
        if isinstance(pred, Cmp):
            self._assume_cmp(pred)
            return
        raise TypeError(f"unexpected predicate {pred!r}")

    def _assume_cmp(self, pred: Cmp) -> None:
        from ..analysis.lowering import NonLinearError, lower_expr

        env = self._terms
        if env is None:
            env = {name: LinTerm.var(Var(name)) for name in self.names}
            self._terms = env
        try:
            term = (lower_expr(pred.left, env)
                    - lower_expr(pred.right, env))
        except NonLinearError:
            return  # not expressible: sound to ignore
        # pred: term OP 0
        if pred.op in ("<", "<="):
            self._assume_term_le(term if pred.op == "<=" else term + 1)
        elif pred.op in (">", ">="):
            self._assume_term_le((-term) if pred.op == ">=" else -term + 1)
        elif pred.op == "==":
            self._assume_term_le(term)
            self._assume_term_le(-term)
        # '!=' carries no zone information

    def _assume_term_le(self, term: LinTerm) -> None:
        """Record ``term <= 0`` when it is a difference constraint."""
        coeffs = list(term.coeffs)
        c = -term.const
        if len(coeffs) == 1:
            (v, a), = coeffs
            i = self.index(v.name)
            if a == 1:
                self.add_constraint(i, 0, c)
            elif a == -1:
                self.add_constraint(0, i, c)
        elif len(coeffs) == 2:
            (v1, a1), (v2, a2) = coeffs
            if a1 == 1 and a2 == -1:
                self.add_constraint(self.index(v1.name),
                                    self.index(v2.name), c)
            elif a1 == -1 and a2 == 1:
                self.add_constraint(self.index(v2.name),
                                    self.index(v1.name), c)

    # ------------------------------------------------------------------
    # reading facts back out
    # ------------------------------------------------------------------
    def facts(self, only: set[str] | None = None) -> list[Pred]:
        """Non-redundant difference facts, as surface predicates.

        ``only`` restricts facts to those mentioning at least one of the
        given names (the loop's modified variables).
        """
        zone = self._closed()
        if zone.bottom:
            return [BoolConst(False)]
        result: list[Pred] = []
        n = len(zone.m)

        def relevant(*names: str) -> bool:
            return only is None or any(name in only for name in names)

        for i in range(1, n):
            name = self.names[i - 1]
            hi = zone.m[i][0]
            lo = zone.m[0][i]
            if hi is not None and relevant(name):
                result.append(Cmp("<=", Name(name), Const(hi)))
            if lo is not None and relevant(name):
                result.append(Cmp(">=", Name(name), Const(-lo)))
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                bound = zone.m[i][j]
                if bound is None:
                    continue
                # skip bounds already implied by unary facts
                implied = _badd(zone.m[i][0], zone.m[0][j])
                if implied is not None and implied <= bound:
                    continue
                ni, nj = self.names[i - 1], self.names[j - 1]
                if not relevant(ni, nj):
                    continue
                # v_i - v_j <= c   ->   v_i <= v_j + c
                rhs: Expr = Name(nj)
                if bound:
                    rhs = BinOp("+", rhs, Const(bound))
                result.append(Cmp("<=", Name(ni), rhs))
        return result


def _difference_form(expr: Expr) -> tuple[str | None, int] | None:
    """Recognize ``c``, ``y + c``, ``y - c`` shapes; None otherwise."""
    if isinstance(expr, Const):
        return (None, expr.value)
    if isinstance(expr, Name):
        return (expr.name, 0)
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        sign = 1 if expr.op == "+" else -1
        if isinstance(expr.left, Name) and isinstance(expr.right, Const):
            return (expr.left.name, sign * expr.right.value)
        if (expr.op == "+" and isinstance(expr.left, Const)
                and isinstance(expr.right, Name)):
            return (expr.right.name, expr.left.value)
    return None


def _negate(pred: Pred) -> Pred:
    from .intervals import _negate as interval_negate

    return interval_negate(pred)
