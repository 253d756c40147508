"""Cooper's quantifier elimination for Presburger arithmetic.

Lemmas 3 and 5 of the paper compute weakest minimum proof obligations and
failure witnesses by eliminating universal quantifiers from
``forall V'. (I => phi)`` — this module provides that elimination.  It is
also the fallback that lets the SMT layer decide quantified formulas.

The procedure eliminates one existential variable at a time:

1. equality/disequality atoms over the variable are rewritten into
   (tightened) inequalities, so only ``<=`` and divisibility atoms mention
   the variable;
2. coefficients on the variable are normalized to +-1 by conceptually
   substituting ``x' = delta * x`` (adding the divisibility constraint
   ``delta | x'``);
3. the classic Cooper disjunction is produced over either the lower-bound
   or the upper-bound test points — whichever set is smaller — together
   with the "infinite" disjunct whose only occurrences of the variable are
   in divisibility atoms.

Universal quantifiers are handled by duality.  All formula construction
goes through the normalizing smart constructors, which keeps the output
reasonably small before any contextual simplification.
"""

from __future__ import annotations

from .. import obs
from .. import limits as _limits
from ..limits import ResourceExhausted
from ..obs import provenance as prov
from ..logic.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Dvd,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Rel,
    atom,
    conj,
    disj,
    dvd,
    exists,
    forall,
    map_atoms,
    neg,
)
from ..logic.intern import MISSING, Memo, clear_memos
from ..logic.normal_forms import dnf_clauses, nnf
from ..logic.terms import LinTerm, Var, lcm, lcm_all


# Elimination results and clause-satisfiability verdicts are pure
# functions of their hash-consed inputs, so both are memoized for the
# life of the process (the abduction loop re-eliminates the same
# variable from near-identical clause sets round after round).  They
# are deliberately not written to the on-disk store (:mod:`repro.cache`):
# a warm run replays whole stage artifacts and never reaches QE, so
# persisted QE memos cost a file each and are not read back.
_ELIMINATIONS = Memo("qe.elim", 8_192)
_CLAUSE_VERDICTS = Memo("qe.clause_sat", 65_536)

#: Node budget of one elimination call.
_SIZE_BUDGET = 2_000_000


def clear_qe_caches() -> None:
    """Empty every solver-stack memo: QE's eliminations and clause
    verdicts, the SMT verdicts and the Omega models (a memory valve;
    purely optional)."""
    clear_memos()


def eliminate_quantifiers(phi: Formula) -> Formula:
    """Eliminate every quantifier in ``phi`` (innermost first)."""
    counter = _Budget()
    with obs.span("qe.eliminate_quantifiers"):
        return _eliminate(phi, counter)


def eliminate_exists(variables: list[Var], body: Formula) -> Formula:
    """Quantifier-free equivalent of ``exists variables. body`` (body QF)."""
    counter = _Budget()
    with obs.span("qe.eliminate_exists", vars=len(variables)):
        return _eliminate_block(list(variables), nnf(body), counter)


def eliminate_forall(variables: list[Var], body: Formula) -> Formula:
    """Quantifier-free equivalent of ``forall variables. body`` (body QF)."""
    return neg(eliminate_exists(variables, neg(body)))


def project(phi: Formula, keep: set[Var]) -> Formula:
    """Existentially project ``phi`` onto ``keep``."""
    drop = [v for v in phi.free_vars() if v not in keep]
    return eliminate_exists(drop, phi)


def decide_closed(phi: Formula) -> bool:
    """Decide a closed Presburger formula."""
    result = eliminate_quantifiers(phi)
    if result.is_true:
        return True
    if result.is_false:
        return False
    if result.free_vars():
        raise ValueError(f"formula is not closed: {phi}")
    return result.evaluate({})


class _Budget:
    def __init__(self) -> None:
        self.used = 0

    def charge(self, amount: int) -> None:
        _limits.tick("qe", amount)
        self.used += amount
        if self.used > _SIZE_BUDGET:
            raise ResourceExhausted(
                "qe", self.used, _SIZE_BUDGET, kind="nodes",
                message=f"quantifier elimination exceeded {_SIZE_BUDGET} nodes",
            )


def _eliminate(phi: Formula, budget: _Budget) -> Formula:
    if isinstance(phi, (Atom, Dvd)) or phi.is_true or phi.is_false:
        return phi
    if isinstance(phi, And):
        return conj(*(_eliminate(a, budget) for a in phi.args))
    if isinstance(phi, Or):
        return disj(*(_eliminate(a, budget) for a in phi.args))
    if isinstance(phi, Not):
        return neg(_eliminate(phi.arg, budget))
    if isinstance(phi, Exists):
        body = _eliminate(phi.body, budget)
        return _eliminate_block(list(phi.variables), nnf(body), budget)
    if isinstance(phi, Forall):
        body = _eliminate(phi.body, budget)
        inner = _eliminate_block(
            list(phi.variables), nnf(neg(body)), budget
        )
        return neg(inner)
    raise TypeError(f"unexpected formula node: {phi!r}")


def _eliminate_block(variables: list[Var], body: Formula,
                     budget: _Budget) -> Formula:
    """Eliminate a block of existential variables from a QF NNF body.

    Works clause-wise: the body is put in DNF (``exists`` distributes over
    disjunction), each variable is eliminated from each clause separately,
    and clauses that the Omega test refutes are pruned between rounds.
    This keeps intermediate formulas small — eliminating from a whole
    formula multiplies its size per variable, while eliminating from a
    conjunction of literals yields a new small DNF.
    """
    remaining = [v for v in variables if v in body.free_vars()]
    if not remaining:
        return body
    try:
        clauses = dnf_clauses(body, limit=500_000)
    except MemoryError as exc:
        raise ResourceExhausted(
            "qe", kind="nodes", message="DNF conversion overflow in QE"
        ) from exc
    clauses = _prune_clauses(clauses, budget)

    while remaining:
        # count every remaining variable's literal occurrences in one
        # pass over the clauses (per-variable passes were the hottest
        # spot of the whole elimination on the Figure-7 workloads)
        if len(remaining) == 1:
            v = remaining[0]
        else:
            counts = dict.fromkeys(remaining, 0)
            for clause in clauses:
                for a in clause:
                    for u in a.free_vars():
                        if u in counts:
                            counts[u] += 1
            v = min(remaining, key=lambda u: (counts[u], u.name))
        remaining.remove(v)
        new_clauses: list[list[Formula]] = []
        for clause in clauses:
            if not any(v in a.free_vars() for a in clause):
                new_clauses.append(clause)
                continue
            eliminated = _eliminate_one(v, conj(*clause), budget)
            try:
                new_clauses.extend(dnf_clauses(eliminated, limit=500_000))
            except MemoryError as exc:
                raise ResourceExhausted(
                    "qe", kind="nodes", message="DNF overflow in QE"
                ) from exc
        clauses = _prune_clauses(new_clauses, budget)
        if remaining:
            occurring: set[Var] = set()
            for clause in clauses:
                for a in clause:
                    occurring |= a.free_vars()
            remaining = [u for u in remaining if u in occurring]
    return disj(*(conj(*clause) for clause in clauses))


def _clause_satisfied(clause: list[Formula], model: dict) -> bool:
    """Does ``model`` (missing variables read as 0) satisfy every literal?"""
    for a in clause:
        term = a.term
        value = term.const
        for v, c in term.coeffs:
            mv = model.get(v)
            if mv:
                value += c * mv
        if isinstance(a, Atom):
            rel = a.rel
            if rel is Rel.LE:
                if value > 0:
                    return False
            elif rel is Rel.EQ:
                if value != 0:
                    return False
            elif value == 0:
                return False
        else:
            assert isinstance(a, Dvd)
            if (value % a.divisor == 0) == a.negated_flag:
                return False
    return True


#: Recent witness models found while pruning; a handful suffices because
#: sibling clauses of one elimination round mostly agree on a satisfying
#: assignment (often all-zeros).  Trying them first skips both the memo
#: lookup and the Omega call for the common satisfiable clause.
_RECENT_MODELS_MAX = 4
_recent_models: list[dict] = [{}]


def _prune_clauses(clauses: list[list[Formula]],
                   budget: _Budget) -> list[list[Formula]]:
    """Drop theory-unsatisfiable and duplicate clauses."""
    from ..lia import OmegaSolver  # lia is below qe in the layering

    solver = OmegaSolver()
    kept: list[list[Formula]] = []
    seen: set[frozenset[Formula]] = set()
    for clause in clauses:
        dedup = frozenset(clause)
        if dedup in seen:
            continue
        seen.add(dedup)
        budget.charge(len(clause) + 1)
        if any(_clause_satisfied(clause, m) for m in _recent_models):
            obs.inc("qe.clause_sat.model_hit")
            kept.append(clause)
            continue
        sat = _CLAUSE_VERDICTS.get(dedup)
        if sat is MISSING:
            obs.inc("qe.clause_sat.miss")
            model = solver.solve_literals(clause)
            sat = model is not None
            if sat and dict(model) not in _recent_models:
                _recent_models.insert(0, dict(model))
                del _recent_models[_RECENT_MODELS_MAX:]
            _CLAUSE_VERDICTS.put(dedup, sat)
        else:
            obs.inc("qe.clause_sat.hit")
        if sat:
            kept.append(clause)
    return kept


def _eliminate_one(x: Var, phi: Formula, budget: _Budget) -> Formula:
    """Cooper elimination of ``exists x`` from QF NNF ``phi`` (memoized)."""
    key = (x, phi)
    result = _ELIMINATIONS.get(key)
    if result is not MISSING:
        obs.inc("qe.elim.hit")
        budget.charge(result.size())
        return result
    obs.inc("qe.elim.miss")
    result = _eliminate_one_uncached(x, phi, budget)
    _ELIMINATIONS.put(key, result)
    return result


def _eliminate_one_uncached(x: Var, phi: Formula, budget: _Budget) -> Formula:
    phi = _strip_eq_ne(x, phi)
    if x not in phi.free_vars():
        return phi

    # delta: lcm of |coefficient of x| across atoms
    coeffs = [
        abs(a.term.coeff(x))
        for a in phi.atoms()
        if a.term.coeff(x) != 0
    ]
    delta = lcm_all(coeffs)

    # Per-atom values that are invariant across the residue loops below
    # (coefficient of x, scale factor, sign, scaled term without x);
    # recomputing them per residue j was a hot spot.
    info: dict[Formula, tuple[int, int, int, LinTerm | None]] = {}

    def atom_info(a: Formula) -> tuple[int, int, int, LinTerm | None]:
        got = info.get(a)
        if got is None:
            c = a.term.coeff(x)
            if c == 0:
                got = (0, 0, 0, None)
            else:
                m = delta // abs(c)
                sign = 1 if c > 0 else -1
                rest = (a.term - LinTerm.var(x, c)).scale(m)
                got = (c, m, sign, rest)
            info[a] = got
        return got

    # D: lcm of the scaled divisors (and delta itself, for delta | x')
    big_d = delta
    lowers: list[LinTerm] = []
    uppers: list[LinTerm] = []
    seen_lower: set[LinTerm] = set()
    seen_upper: set[LinTerm] = set()
    for a in _unique_atoms(phi):
        c, m, _sign, rest = atom_info(a)
        if c == 0:
            continue
        if isinstance(a, Dvd):
            big_d = lcm(big_d, a.divisor * m)
        else:
            assert rest is not None
            if c > 0:
                bound = -rest          # x' <= -m*rest
                if bound not in seen_upper:
                    seen_upper.add(bound)
                    uppers.append(bound)
            else:
                bound = rest           # x' >= m*rest
                if bound not in seen_lower:
                    seen_lower.add(bound)
                    lowers.append(bound)

    use_lower = len(lowers) <= len(uppers)
    bounds = lowers if use_lower else uppers

    disjuncts: list[Formula] = []
    for j in range(big_d):
        inf = _substitute_infinite(
            phi, atom_info, from_below=use_lower, j=j
        )
        inf = conj(inf, dvd(delta, LinTerm.constant(j)))
        budget.charge(inf.size())
        disjuncts.append(inf)
    for b in bounds:
        for j in range(big_d):
            tau = b + j if use_lower else b - j
            candidate = conj(
                _substitute_scaled(phi, atom_info, tau),
                dvd(delta, tau),
            )
            budget.charge(candidate.size())
            disjuncts.append(candidate)
    result = disj(*disjuncts)
    if obs.is_enabled():
        before = phi.size()
        after = result.size()
        obs.observe("qe.result_size", after)
        if before:
            obs.observe("qe.blowup", after / before)
        if prov.is_enabled():
            prov.record(
                "qe.eliminate", var=x.name, delta=delta, lcm=big_d,
                lowers=len(lowers), uppers=len(uppers),
                atoms_before=sum(1 for _ in phi.atoms()),
                atoms_after=sum(1 for _ in result.atoms()),
            )
    return result


def _unique_atoms(phi: Formula) -> list[Formula]:
    seen: dict[Formula, None] = {}
    for a in phi.atoms():
        seen.setdefault(a, None)
    return list(seen)


def _strip_eq_ne(x: Var, phi: Formula) -> Formula:
    """Rewrite EQ/NE atoms mentioning ``x`` into LE atoms."""

    def rewrite(a: Formula) -> Formula:
        if not isinstance(a, Atom) or a.term.coeff(x) == 0:
            return a
        if a.rel is Rel.EQ:
            return conj(
                atom(Rel.LE, a.term), atom(Rel.LE, -a.term)
            )
        if a.rel is Rel.NE:
            return disj(
                atom(Rel.LE, a.term + 1), atom(Rel.LE, -a.term + 1)
            )
        return a

    return map_atoms(phi, rewrite)


def _substitute_scaled(phi: Formula, atom_info, tau: LinTerm) -> Formula:
    """phi with the (scaled) variable ``x' = delta*x`` replaced by ``tau``.

    Each atom is individually rescaled so x's coefficient becomes +-delta,
    then ``+-x'`` is replaced by ``+-tau``.  ``atom_info`` supplies the
    precomputed per-atom ``(c, m, sign, rest)`` tuple.
    """

    def rewrite(a: Formula) -> Formula:
        c, m, sign, rest = atom_info(a)
        if c == 0:
            return a
        new_term = tau.scale(sign) + rest
        if isinstance(a, Dvd):
            return dvd(a.divisor * m, new_term, a.negated_flag)
        assert isinstance(a, Atom) and a.rel is Rel.LE
        return atom(Rel.LE, new_term)

    return map_atoms(phi, rewrite)


def _substitute_infinite(phi: Formula, atom_info,
                         *, from_below: bool, j: int) -> Formula:
    """The ``phi_{-inf}`` (or ``phi_{+inf}``) formula evaluated at residue j.

    Inequalities on x collapse to TRUE/FALSE according to the direction of
    the limit; divisibility atoms keep x and are evaluated at x' = j.
    """

    def rewrite(a: Formula) -> Formula:
        c, m, sign, rest = atom_info(a)
        if c == 0:
            return a
        if isinstance(a, Dvd):
            new_term = LinTerm.constant(sign * j) + rest
            return dvd(a.divisor * m, new_term, a.negated_flag)
        assert isinstance(a, Atom) and a.rel is Rel.LE
        # scaled atom: sign*x' + rest <= 0
        if from_below:
            # x' -> -infinity: sign>0 (upper bound) satisfied, else violated
            return TRUE if sign > 0 else FALSE
        return FALSE if sign > 0 else TRUE

    return map_atoms(phi, rewrite)
