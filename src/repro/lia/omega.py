"""The Omega test: exact integer feasibility for conjunctions of linear
constraints, with model extraction.

This is the theory solver underneath :mod:`repro.smt` and the workhorse of
the whole reproduction (the paper used the authors' Mistral solver).  The
implementation follows Pugh's Omega test:

* equalities are eliminated with the "mod-hat" change of variables, which
  keeps all arithmetic exact over the integers;
* inequalities are eliminated variable by variable with Fourier–Motzkin
  shadows: when every bound pair has a unit coefficient the shadow is
  exact; otherwise the *dark shadow* proves satisfiability and, when the
  dark shadow is infeasible, *splinters* (case splits on ``beta*x = b+i``)
  restore completeness;
* every recursive call returns a complete integer model of its subsystem,
  so eliminated variables are reconstructed by exact back-substitution.

Disequalities and (negated) divisibility literals are lowered at the entry
point (:func:`solve_literals`):  ``t != 0`` case-splits into ``t <= -1`` or
``t >= 1``;  ``d | t`` introduces a fresh quotient variable;  ``d !| t``
introduces a quotient and a bounded nonzero remainder.

Internally the solver runs on *dense rows* — each constraint is a plain
list ``[c0, ..., c_{n-1}, const]`` over a fixed variable order — so the
elimination inner loops (Fourier–Motzkin pair products, equality
substitution) are list arithmetic over Python's arbitrary-precision
ints instead of sparse term manipulation.  ``LinTerm`` is still the
public interface; conversion happens once per ``_solve`` call.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .. import limits as _limits
from ..limits import ResourceExhausted
from ..logic.formulas import Atom, Dvd, Formula, Rel
from ..logic.intern import MISSING, Memo
from ..logic.terms import LinTerm, Var, VarSupply
from .intmath import ceil_div, floor_div, mod_hat

_DEFAULT_BUDGET = 5_000_000

#: Resource ticks are counted exactly but reported to the governor in
#: batches, so the per-tick cost is an integer add instead of a clock
#: read (mirrors the deadline amortization inside :mod:`repro.limits`).
_TICK_FLUSH = 64


class Model(dict):
    """An integer model: a dict from :class:`Var` to ``int``.

    Variables not mentioned are unconstrained; :meth:`value` defaults
    them to 0.
    """

    def value(self, v: Var, default: int = 0) -> int:
        return self.get(v, default)


#: ``solve_literals`` results of every solver in the process (``None`` is
#: UNSAT), keyed on the literal tuple.  The SMT layer's deletion-based
#: unsat_core re-solves the full literal set its caller just proved
#: unsatisfiable, and overlapping subsets recur across theory rounds —
#: both hit here.
_MODELS = Memo("omega.solve_literals", 16_384)


# ---------------------------------------------------------------------------
# dense-row helpers: a row is [c0, ..., c_{n-1}, const] over a var order
# ---------------------------------------------------------------------------

def _term_to_row(term: LinTerm, col: dict[Var, int], width: int) -> list[int]:
    row = [0] * width
    for v, c in term.coeffs:
        row[col[v]] = c
    row[-1] = term.const
    return row


def _normalize_le_row(row: list[int]) -> list[int] | None | bool:
    """Tighten the row ``row <= 0`` by the gcd of its coefficients.

    Returns ``None`` when trivially true, ``False`` when trivially false,
    otherwise the tightened row (possibly the input row itself).
    """
    g = 0
    for k in range(len(row) - 1):
        c = row[k]
        if c:
            g = gcd(g, c)
    if g == 0:
        return None if row[-1] <= 0 else False
    if g == 1:
        return row
    new = [c // g for c in row]
    new[-1] = ceil_div(row[-1], g)
    return new


def _normalize_eq_row(row: list[int]) -> list[int] | None | bool:
    """Normalize the row ``row = 0``; ``None``/``False`` as in
    :func:`_normalize_le_row`."""
    g = 0
    for k in range(len(row) - 1):
        c = row[k]
        if c:
            g = gcd(g, c)
    if g == 0:
        return None if row[-1] == 0 else False
    if g == 1:
        return row
    if row[-1] % g != 0:
        return False
    return [c // g for c in row]


def _subst_row(row: list[int], j: int, repl: list[int]) -> list[int]:
    """``row`` with variable ``j`` replaced by the affine row ``repl``."""
    c = row[j]
    if c == 0:
        return row
    new = [x + c * y for x, y in zip(row, repl)]
    new[j] = 0
    return new


def _shadow_rows(
    lowers: list[list[int]], betas: list[int],
    uppers: list[list[int]], alphas: list[int], exact: bool,
) -> list[list[int]]:
    """All Fourier–Motzkin pair rows ``alpha*b - beta*a`` (plus the dark
    shadow slack unless ``exact``), lower-major / upper-minor order."""
    out: list[list[int]] = []
    for b, beta in zip(lowers, betas):
        for a, alpha in zip(uppers, alphas):
            row = [alpha * x - beta * y for x, y in zip(b, a)]
            if not exact:
                row[-1] += (alpha - 1) * (beta - 1)
            out.append(row)
    return out


def _eval_row(row: list[int], order: list[Var], env) -> int:
    total = row[-1]
    for k in range(len(row) - 1):
        c = row[k]
        if c:
            total += c * env[order[k]]
    return total


class OmegaSolver:
    """Exact integer linear arithmetic solver for conjunctions of literals."""

    def __init__(self):
        self._budget = _DEFAULT_BUDGET
        self._steps = 0
        self._pending = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve_literals(self, literals: Iterable[Formula]) -> Model | None:
        """Solve a conjunction of atom literals; return a model or ``None``.

        Accepts :class:`Atom` (LE / EQ / NE) and :class:`Dvd` literals, plus
        the constants TRUE (ignored) / FALSE (unsat).
        """
        literals = list(literals)
        key = tuple(literals)
        cached = _MODELS.get(key)
        if cached is not MISSING:
            _limits.tick("omega")  # cached answers keep the deadline live
            return cached
        result = self._solve_literals_uncached(literals)
        _MODELS.put(key, result)
        return result

    def _solve_literals_uncached(self, literals: list) -> Model | None:
        self._steps = 0
        self._pending = 0
        les: list[LinTerm] = []
        eqs: list[LinTerm] = []
        nes: list[LinTerm] = []
        free: set[Var] = set()
        for lit in literals:
            free |= lit.free_vars()
        supply = VarSupply(free, prefix="$w")
        aux: set[Var] = set()

        for lit in literals:
            if lit.is_true:
                continue
            if lit.is_false:
                return None
            if isinstance(lit, Atom):
                if lit.rel is Rel.LE:
                    les.append(lit.term)
                elif lit.rel is Rel.EQ:
                    eqs.append(lit.term)
                else:
                    nes.append(lit.term)
            elif isinstance(lit, Dvd):
                quotient = supply.fresh("$q")
                aux.add(quotient)
                if not lit.negated_flag:
                    # d | t  <=>  exists q. t - d*q = 0
                    eqs.append(lit.term - LinTerm.var(quotient, lit.divisor))
                else:
                    # d !| t  <=>  exists q, r. t = d*q + r  and  1<=r<=d-1
                    remainder = supply.fresh("$r")
                    aux.add(remainder)
                    eqs.append(
                        lit.term
                        - LinTerm.var(quotient, lit.divisor)
                        - LinTerm.var(remainder)
                    )
                    les.append(LinTerm.var(remainder, -1) + 1)   # r >= 1
                    les.append(
                        LinTerm.var(remainder) - (lit.divisor - 1)
                    )                                            # r <= d-1
            else:
                raise TypeError(f"not an atom literal: {lit!r}")

        try:
            model = self._solve_with_nes(les, eqs, nes)
        finally:
            self._flush_ticks()
        if model is None:
            return None
        # keep only the caller's variables (internal $q/$r/$s vars drop out)
        return Model({v: model.get(v, 0) for v in free})

    def is_sat_literals(self, literals: Iterable[Formula]) -> bool:
        return self.solve_literals(literals) is not None

    def unsat_core(self, literals: Sequence[Formula]) -> list[Formula]:
        """A minimal unsat subset of ``literals`` (deletion-based).

        Precondition: the conjunction of ``literals`` is unsatisfiable.
        """
        core = list(literals)
        if self.is_sat_literals(core):
            raise ValueError("unsat_core called on a satisfiable conjunction")
        index = 0
        while index < len(core):
            candidate = core[:index] + core[index + 1:]
            if not self.is_sat_literals(candidate):
                core = candidate
            else:
                index += 1
        return core

    # ------------------------------------------------------------------
    # disequality splitting
    # ------------------------------------------------------------------
    def _solve_with_nes(
        self,
        les: list[LinTerm],
        eqs: list[LinTerm],
        nes: list[LinTerm],
    ) -> dict[Var, int] | None:
        """Model-guided lazy disequality splitting.

        Solving without the disequalities first and splitting only the
        ones the found model violates avoids the eager 2^k case split:
        in the common case the first model already satisfies every
        ``t != 0`` and no branching happens at all.
        """
        model = self._solve(list(les), list(eqs))
        if model is None:
            return None
        env = _Defaulting(model)
        violated = None
        for term in nes:
            if term.evaluate(env) == 0:
                violated = term
                break
        if violated is None:
            return model
        rest = [t for t in nes if t is not violated]
        # t != 0  <=>  t <= -1  or  -t <= -1
        for branch in (violated + 1, -violated + 1):
            result = self._solve_with_nes(les + [branch], eqs, rest)
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------
    # core solver: returns a model covering every variable of the system
    # ------------------------------------------------------------------
    def _tick(self, amount: int = 1) -> None:
        self._steps += amount
        pending = self._pending + amount
        if pending >= _TICK_FLUSH:
            self._pending = 0
            _limits.tick("omega", pending)
        else:
            self._pending = pending
        if self._steps > self._budget:
            raise ResourceExhausted("omega", self._steps, self._budget)

    def _flush_ticks(self) -> None:
        if self._pending:
            pending, self._pending = self._pending, 0
            _limits.tick("omega", pending)

    def _solve(
        self, les: list[LinTerm], eqs: list[LinTerm]
    ) -> dict[Var, int] | None:
        """Solve ``les <= 0  and  eqs = 0``; model covers all variables."""
        variables: set[Var] = set()
        for t in les:
            variables |= t.variables
        for t in eqs:
            variables |= t.variables
        order = sorted(variables, key=lambda v: v.name)
        col = {v: k for k, v in enumerate(order)}
        width = len(order) + 1
        le_rows = [_term_to_row(t, col, width) for t in les]
        eq_rows = [_term_to_row(t, col, width) for t in eqs]
        return self._solve_rows(le_rows, eq_rows, order)

    def _solve_rows(
        self,
        le_rows: list[list[int]],
        eq_rows: list[list[int]],
        order: list[Var],
    ) -> dict[Var, int] | None:
        """Row-level core; ``order`` maps columns to variables.

        The order list is copied (equality elimination may append fresh
        ``$s`` columns); rows are copied too, since elimination widens
        them in place while callers (splinters) reuse their row lists.
        """
        order = list(order)
        le_rows = [r[:] for r in le_rows]
        eq_rows = [r[:] for r in eq_rows]
        occurring = {
            order[k]
            for rows in (le_rows, eq_rows)
            for row in rows
            for k in range(len(row) - 1)
            if row[k]
        }
        supply = VarSupply(occurring, prefix="$s")
        # scan visits columns in variable-name order, matching the sorted
        # coefficient order the sparse-term implementation iterated in
        scan = sorted(range(len(order)), key=lambda k: order[k].name)
        substitutions: list[tuple[int, list[int]]] = []

        # ---- phase 1: equality elimination -----------------------------
        while eq_rows:
            self._tick()
            normalized = _normalize_eq_row(eq_rows.pop())
            if normalized is None:
                continue
            if normalized is False:
                return None
            eq = normalized

            j = -1
            c = 0
            for k in scan:
                ck = eq[k]
                if ck == 1 or ck == -1:
                    j = k
                    c = ck
                    break
            if j >= 0:
                repl = eq[:]
                repl[j] = 0
                if c == 1:
                    repl = [-x for x in repl]
            else:
                # Pugh's mod-hat reduction: no unit coefficient available.
                best = 0
                for k in scan:
                    ck = eq[k]
                    if ck and (best == 0 or abs(ck) < best):
                        best = abs(ck)
                        j = k
                m = best + 1
                sigma = supply.fresh("$s")
                order.append(sigma)
                for row in le_rows:
                    row.insert(-1, 0)
                for row in eq_rows:
                    row.insert(-1, 0)
                eq.insert(-1, 0)
                scan = sorted(range(len(order)), key=lambda k: order[k].name)
                reduced = [mod_hat(x, m) for x in eq]
                reduced[-2] = -m          # the fresh sigma column
                cv = reduced[j]
                assert abs(cv) == 1, "mod-hat must give v a unit coefficient"
                repl = reduced[:]
                repl[j] = 0
                if cv == 1:
                    repl = [-x for x in repl]
                # the original equality, rewritten, shrinks and goes back in
                eq_rows.append(_subst_row(eq, j, repl))

            le_rows = [_subst_row(row, j, repl) for row in le_rows]
            eq_rows = [_subst_row(row, j, repl) for row in eq_rows]
            substitutions.append((j, repl))

        # ---- phase 2: inequality elimination ----------------------------
        model = self._solve_ineq_rows(le_rows, order)
        if model is None:
            return None

        # ---- back-substitute eliminated variables -----------------------
        for j, repl in reversed(substitutions):
            model[order[j]] = _eval_row(repl, order, _Defaulting(model))
        return model

    def _solve_ineq_rows(
        self, raw: list[list[int]], order: list[Var]
    ) -> dict[Var, int] | None:
        """Solve a pure inequality system; model covers all its variables."""
        # normalize, then drop dominated constraints: for identical
        # coefficient vectors keep only the tightest bound.  Without this
        # the Fourier-Motzkin shadows accumulate quadratically many
        # redundant copies and elimination blows up.
        tightest: dict[tuple[int, ...], int] = {}
        rows: list[list[int]] = []
        for row in raw:
            tightened = _normalize_le_row(row)
            if tightened is False:
                return None
            if tightened is None:
                continue
            key = tuple(tightened[:-1])
            prior = tightest.get(key)
            if prior is None:
                tightest[key] = len(rows)
                rows.append(tightened)
            elif tightened[-1] > rows[prior][-1]:
                rows[prior] = tightened
        if not rows:
            return {}

        ncols = len(order)
        active = [k for k in range(ncols) if any(row[k] for row in rows)]
        j = self._pick_column(rows, active, order)

        lowers: list[list[int]] = []   # (b, beta): b <= beta*v
        betas: list[int] = []
        uppers: list[list[int]] = []   # (a, alpha): alpha*v <= a
        alphas: list[int] = []
        others: list[list[int]] = []
        for row in rows:
            c = row[j]
            if c == 0:
                others.append(row)
            elif c > 0:
                # c*v + rest <= 0  =>  c*v <= -rest
                a = [-x for x in row]
                a[j] = 0
                uppers.append(a)
                alphas.append(c)
            else:
                # c*v + rest <= 0  =>  (-c)*v >= rest
                b = row[:]
                b[j] = 0
                lowers.append(b)
                betas.append(-c)

        if not lowers or not uppers:
            # one-sided: v can always be chosen once the rest is solved
            model = self._solve_ineq_rows(others, order)
            if model is None:
                return None
            self._assign_within_bounds(
                model, j, lowers, betas, uppers, alphas, order
            )
            return model

        # every bound pair needs beta == 1 or alpha == 1 for exactness
        exact = all(b == 1 for b in betas) or all(a == 1 for a in alphas)

        # real shadow: alpha*b - beta*a <= 0; dark shadow adds slack
        self._tick(len(lowers) * len(uppers))
        shadow = _shadow_rows(lowers, betas, uppers, alphas, exact)

        model = self._solve_ineq_rows(others + shadow, order)
        if model is not None:
            self._assign_within_bounds(
                model, j, lowers, betas, uppers, alphas, order
            )
            return model
        if exact:
            return None

        # dark shadow infeasible: splinter on beta*v = b + i for completeness
        alpha_max = max(alphas)
        for b, beta in zip(lowers, betas):
            if beta == 1:
                continue
            limit = floor_div(beta * alpha_max - alpha_max - beta, alpha_max)
            for i in range(limit + 1):
                self._tick()
                eq = [-x for x in b]
                eq[j] = beta
                eq[-1] = -b[-1] - i
                model = self._solve_rows(rows, [eq], order)
                if model is not None:
                    return model
        return None

    @staticmethod
    def _pick_column(
        rows: list[list[int]], active: list[int], order: list[Var]
    ) -> int:
        """Prefer variables whose elimination is exact and cheap.

        The dominant cost driver is the number of shadow constraints a
        step creates (#lower-bounds x #upper-bounds), so that count is
        minimized first among exact candidates.
        """
        best_key: tuple[int, int, int, str] | None = None
        best = -1
        for k in active:
            lowers = uppers = non_unit = 0
            max_coeff = 1
            for row in rows:
                c = row[k]
                if c == 0:
                    continue
                if c > 0:
                    uppers += 1
                else:
                    lowers += 1
                if c != 1 and c != -1:
                    non_unit += 1
                    a = -c if c < 0 else c
                    if a > max_coeff:
                        max_coeff = a
            growth = lowers * uppers - (lowers + uppers)
            key = (non_unit, growth, max_coeff, order[k].name)
            if best_key is None or key < best_key:
                best_key = key
                best = k
        assert best >= 0
        return best

    @staticmethod
    def _assign_within_bounds(
        model: dict[Var, int],
        j: int,
        lowers: list[list[int]],
        betas: list[int],
        uppers: list[list[int]],
        alphas: list[int],
        order: list[Var],
    ) -> None:
        """Pick a value for column ``j`` between its bounds under ``model``."""
        env = _Defaulting(model)
        lo = (
            max(ceil_div(_eval_row(b, order, env), beta)
                for b, beta in zip(lowers, betas))
            if lowers else None
        )
        hi = (
            min(floor_div(_eval_row(a, order, env), alpha)
                for a, alpha in zip(uppers, alphas))
            if uppers else None
        )
        if lo is not None and hi is not None:
            assert lo <= hi, "shadow guaranteed an integer solution"
            model[order[j]] = lo
        elif lo is not None:
            model[order[j]] = lo
        elif hi is not None:
            model[order[j]] = hi
        else:
            model[order[j]] = 0


class _Defaulting(dict):
    """Environment wrapper that treats unassigned variables as 0.

    A variable can be genuinely unconstrained in a subsystem (it only
    occurred in constraints dropped by one-sided elimination); defaulting
    keeps back-substitution total and pins the variable to the value used.
    """

    def __init__(self, backing: dict[Var, int]):
        super().__init__()
        self._backing = backing

    def __missing__(self, key: Var) -> int:
        value = self._backing.setdefault(key, 0)
        self[key] = value
        return value

    def __getitem__(self, key: Var) -> int:
        if key in self._backing:
            return self._backing[key]
        return self.__missing__(key)


# A module-level default instance for convenience.
_DEFAULT = OmegaSolver()


def solve_literals(literals: Iterable[Formula]) -> Model | None:
    """Solve a conjunction of literals with a shared default solver."""
    return _DEFAULT.solve_literals(literals)


def is_sat_literals(literals: Iterable[Formula]) -> bool:
    return _DEFAULT.is_sat_literals(literals)


def unsat_core(literals: Sequence[Formula]) -> list[Formula]:
    return _DEFAULT.unsat_core(literals)
