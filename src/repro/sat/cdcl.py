"""A CDCL SAT solver (conflict-driven clause learning).

The propositional engine behind the lazy SMT solver of :mod:`repro.smt`.
Features the standard modern architecture:

* two-watched-literal clause indexing,
* first-UIP conflict analysis with learned-clause minimization,
* VSIDS-style exponential variable activities with phase saving,
* Luby-sequence restarts,
* LBD-guided learned-clause database reduction,
* incremental use: clauses may be added between ``solve()`` calls (the
  SMT layer adds theory-blocking clauses this way).

Literal encoding: variables are positive integers ``1..n``; a literal is
``+v`` or ``-v``.  Internally literals map to indices ``2v`` / ``2v+1``.

Storage layout (the hot-path design):

* clause literals live in one flat *arena*; a clause is a ``(start,
  length)`` pair held in two parallel columns, so propagation walks one
  contiguous sequence instead of chasing per-clause Python list objects
  (the arena is a plain list rather than ``array('i')`` — see the note
  in ``__init__`` on CPython int boxing);
* watch lists are flat interleaved ``[clause, blocker, clause, blocker,
  ...]`` lists per literal index; the *blocker* is the other watched
  literal of the clause — if it is already true the clause is satisfied
  and the visit costs one assignment lookup, never touching the arena
  (MiniSat's blocking-literal trick, which skips most visits);
* assignments/levels/reasons are parallel ``array`` columns indexed by
  variable, plus a per-*literal* truth-value column (``_litval``) so the
  propagation loop tests a literal with one indexed read instead of a
  sign branch and a negation.

Database reduction: learned clauses record their LBD (number of distinct
decision levels in the clause at learning time).  Every
:data:`REDUCE_INTERVAL` conflicts the worst half of the learned clauses
(highest LBD, break ties towards most recent) is dropped — except
glue clauses (LBD <= :data:`REDUCE_KEEP_LBD`), binary clauses and
clauses currently locked as a propagation reason — and the arena is
compacted.

The search-control constants tune the search order and memory, never
the answer.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from .. import obs
from .. import limits as _limits


#: Conflicts per Luby restart unit (budget = unit * luby(i)).
LUBY_UNIT = 64

#: VSIDS decay factor applied after every conflict.
VAR_DECAY = 0.95

#: Conflicts between learned-clause database reductions; 0 disables them.
REDUCE_INTERVAL = 2000

#: Learned clauses at or below this LBD ("glue" clauses) survive every
#: reduction.
REDUCE_KEEP_LBD = 3


def _lit_index(lit: int) -> int:
    """Map a signed literal to a dense array index."""
    return 2 * lit if lit > 0 else -2 * lit + 1


def luby(x: int) -> int:
    """The Luby restart sequence (0-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """An incremental CDCL SAT solver on a flat clause arena."""

    _UNASSIGNED = 0
    _TRUE = 1
    _FALSE = -1

    def __init__(self) -> None:
        self._num_vars = 0
        # clause arena: flat literal storage + per-clause columns.
        # Plain lists, not array('i'): benchmarked both, and in CPython an
        # array read *boxes* any int outside the small-int cache (every
        # negative literal, every arena offset past 256) — a heap
        # allocation per read in the hottest loop.  Lists hold already-
        # boxed ints, so indexing is a pointer fetch.
        self._arena: list[int] = []
        self._clause_start: list[int] = []
        self._clause_len: list[int] = []
        self._clause_lbd = array("i")    # 0 = problem clause, >0 = learned
        self._clause_stamp = array("q")  # learning order, for reduction ties
        self._num_clauses = 0
        self._deleted = 0
        self._watches: list[list[int]] = [[], []]  # per literal index
        self._assign = array("b", [0])             # per variable, 1-based
        self._litval = array("b", [0, 0])          # per literal index
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]             # clause index or -1
        self._phase = array("b", [0])
        self._activity: list[float] = [0.0]
        self._var_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._queue_head = 0
        self._ok = True
        self._conflicts = 0
        self._restarts = 0
        self._next_reduce = REDUCE_INTERVAL

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._assign.append(self._UNASSIGNED)
        self._litval.append(0)
        self._litval.append(0)
        self._level.append(0)
        self._reason.append(-1)
        self._phase.append(0)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        return self._num_vars

    def ensure_vars(self, n: int) -> None:
        while self._num_vars < n:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Attached (non-unit) clauses, including learned ones."""
        return self._num_clauses - self._deleted

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially unsat.

        May be called between ``solve()`` invocations; the solver first
        backtracks to the root level.
        """
        if not self._ok:
            return False
        self._backtrack(0)
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            if lit == 0 or abs(lit) > self._num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = self._value(lit)
            if value == self._TRUE and self._level[abs(lit)] == 0:
                return True  # already satisfied at root
            if value == self._FALSE and self._level[abs(lit)] == 0:
                continue     # falsified at root: drop the literal
            seen.add(lit)
            clause.append(lit)

        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], -1):
                self._ok = False
                return False
            self._ok = self._propagate() == -1
            return self._ok
        self._attach(clause, lbd=0)
        return True

    def _attach(self, clause: Sequence[int], *, lbd: int) -> int:
        index = self._num_clauses
        self._num_clauses = index + 1
        self._clause_start.append(len(self._arena))
        self._clause_len.append(len(clause))
        self._clause_lbd.append(lbd)
        self._clause_stamp.append(self._conflicts)
        self._arena.extend(clause)
        watch0 = self._watches[_lit_index(-clause[0])]
        watch0.append(index)
        watch0.append(_lit_index(clause[1]))
        watch1 = self._watches[_lit_index(-clause[1])]
        watch1.append(index)
        watch1.append(_lit_index(clause[0]))
        return index

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self) -> bool:
        """Decide satisfiability of the clauses added so far."""
        if not obs.is_enabled():
            return self._solve()
        before_conflicts = self._conflicts
        before_restarts = self._restarts
        try:
            return self._solve()
        finally:
            obs.inc("sat.solves")
            obs.inc("sat.conflicts", self._conflicts - before_conflicts)
            obs.inc("sat.restarts", self._restarts - before_restarts)

    def _solve(self) -> bool:
        if not self._ok:
            return False
        self._backtrack(0)
        if self._propagate() != -1:
            self._ok = False
            return False

        restarts = 0
        budget = LUBY_UNIT * luby(restarts)
        conflicts_here = 0

        while True:
            _limits.tick("sat")
            conflict = self._propagate()
            if conflict != -1:
                self._conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return False
                learned, backjump, lbd = self._analyze(conflict)
                self._backtrack(backjump)
                self._learn(learned, lbd)
                self._decay_activities()
                if (REDUCE_INTERVAL
                        and self._conflicts >= self._next_reduce
                        and self._decision_level() == 0):
                    self._reduce_db()
                if conflicts_here >= budget:
                    restarts += 1
                    self._restarts += 1
                    budget = LUBY_UNIT * luby(restarts)
                    conflicts_here = 0
                    self._backtrack(0)
                continue

            lit = self._pick_branch()
            if lit == 0:
                return True  # full assignment found
            self._decide(lit)

    def model(self) -> dict[int, bool]:
        """The satisfying assignment found by the last ``solve()``."""
        assign = self._assign
        return {
            v: assign[v] == self._TRUE
            for v in range(1, self._num_vars + 1)
            if assign[v] != self._UNASSIGNED
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        return value if lit > 0 else -value

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _decide(self, lit: int) -> None:
        self._trail_lim.append(len(self._trail))
        enqueued = self._enqueue(lit, -1)
        assert enqueued

    def _enqueue(self, lit: int, reason: int) -> bool:
        var = lit if lit > 0 else -lit
        value = self._assign[var]
        if lit < 0:
            value = -value
        if value == self._FALSE:
            return False
        if value == self._TRUE:
            return True
        litval = self._litval
        if lit > 0:
            self._assign[var] = self._TRUE
            litval[2 * var] = 1
            litval[2 * var + 1] = -1
        else:
            self._assign[var] = self._FALSE
            litval[2 * var] = -1
            litval[2 * var + 1] = 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = 1 if lit > 0 else 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1.

        This is the dominant cost of every solve, so the loop binds all
        state to locals, checks blockers before touching the arena, and
        inlines the implied-literal enqueue — no clause objects and no
        helper calls on the fast path.
        """
        arena = self._arena
        starts = self._clause_start
        lens = self._clause_len
        assign = self._assign
        litval = self._litval
        levels = self._level
        reasons = self._reason
        phases = self._phase
        watches = self._watches
        trail = self._trail
        level = len(self._trail_lim)  # constant during propagation
        head = self._queue_head
        while head < len(trail):
            lit = trail[head]
            head += 1
            fi = 2 * lit if lit > 0 else -2 * lit + 1  # falsified index
            wl = watches[fi]
            n = len(wl)
            i = 0
            j = 0  # write pointer: the list is compacted in place
            conflict = -1
            while i < n:
                ci = wl[i]
                blocker = wl[i + 1]
                i += 2
                if litval[blocker] == 1:
                    wl[j] = ci
                    wl[j + 1] = blocker
                    j += 2
                    continue
                start = starts[ci]
                # ensure the falsified literal is in slot 1
                first = arena[start]
                if first == -lit:
                    arena[start] = first = arena[start + 1]
                    arena[start + 1] = -lit
                fidx = 2 * first if first > 0 else -2 * first + 1
                if fidx != blocker and litval[fidx] == 1:
                    wl[j] = ci
                    wl[j + 1] = fidx
                    j += 2
                    continue
                # search for a replacement watch
                end = start + lens[ci]
                for k in range(start + 2, end):
                    other = arena[k]
                    if litval[2 * other if other > 0
                              else -2 * other + 1] != -1:
                        arena[k] = arena[start + 1]
                        arena[start + 1] = other
                        moved = watches[-2 * other if other < 0
                                        else 2 * other + 1]
                        moved.append(ci)
                        moved.append(fidx)
                        break
                else:
                    # clause is unit (enqueue first) or conflicting
                    wl[j] = ci
                    wl[j + 1] = fidx
                    j += 2
                    value = litval[fidx]
                    if value == -1:
                        conflict = ci
                        break
                    if value == 0:
                        var = first if first > 0 else -first
                        if first > 0:
                            assign[var] = 1
                            litval[fidx] = 1
                            litval[fidx + 1] = -1
                            phases[var] = 1
                        else:
                            assign[var] = -1
                            litval[fidx] = 1
                            litval[fidx - 1] = -1
                            phases[var] = 0
                        levels[var] = level
                        reasons[var] = ci
                        trail.append(first)
            if conflict != -1:
                while i < n:
                    wl[j] = wl[i]
                    j += 1
                    i += 1
                del wl[j:]
                self._queue_head = len(trail)
                return conflict
            del wl[j:]
        self._queue_head = head
        return -1

    def _analyze(self, conflict: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns ``(learned clause, backjump level, lbd)``; the LBD is the
        number of distinct decision levels among the learned literals.
        """
        learned: list[int] = [0]  # slot 0 reserved for the asserting literal
        seen = bytearray(self._num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        arena = self._arena
        starts = self._clause_start
        lens = self._clause_len
        trail = self._trail
        current_level = self._decision_level()
        levels = self._level
        ci = conflict

        while True:
            start = starts[ci]
            for j in range(start, start + lens[ci]):
                q = arena[j]
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # find the next seen literal on the trail
            while not seen[abs(trail[index])]:
                index -= 1
            p = trail[index]
            index -= 1
            var = abs(p)
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learned[0] = -p
                break
            ci = self._reason[var]
            lit = p

        # clause minimization: drop literals implied by the rest
        learned = self._minimize(learned)

        if len(learned) == 1:
            return learned, 0, 1
        # backjump to the second-highest level in the clause; the LBD is
        # the number of distinct levels (the asserting literal sits alone
        # at the current level, hence the +1)
        distinct = set()
        backjump = 0
        for k in range(1, len(learned)):
            qlevel = levels[abs(learned[k])]
            distinct.add(qlevel)
            if qlevel > backjump:
                backjump = qlevel
        # move a literal of the backjump level into slot 1 for watching
        for k in range(1, len(learned)):
            if levels[abs(learned[k])] == backjump:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, backjump, len(distinct) + 1

    def _minimize(self, learned: list[int]) -> list[int]:
        """Cheap recursive minimization of the learned clause."""
        marked = set(abs(q) for q in learned)
        levels = self._level
        arena = self._arena
        starts = self._clause_start
        lens = self._clause_len
        result = [learned[0]]
        reasons = self._reason
        for q in learned[1:]:
            reason = reasons[abs(q)]
            if reason == -1:
                result.append(q)
                continue
            start = starts[reason]
            for j in range(start, start + lens[reason]):
                r = arena[j]
                if r == -q:
                    continue
                var = r if r > 0 else -r
                if var not in marked and levels[var] != 0:
                    result.append(q)  # not implied: keep the literal
                    break
            # else: q is implied by the other clause literals — drop it
        return result

    def _learn(self, learned: list[int], lbd: int) -> None:
        if len(learned) == 1:
            enqueued = self._enqueue(learned[0], -1)
            assert enqueued
            return
        index = self._attach(learned, lbd=max(lbd, 1))
        enqueued = self._enqueue(learned[0], index)
        assert enqueued

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        assign = self._assign
        litval = self._litval
        reasons = self._reason
        for lit in reversed(self._trail[boundary:]):
            var = lit if lit > 0 else -lit
            assign[var] = self._UNASSIGNED
            litval[2 * var] = 0
            litval[2 * var + 1] = 0
            reasons[var] = -1
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)

    def _pick_branch(self) -> int:
        """The highest-activity unassigned variable (linear scan; lowest
        index wins ties).  A scan beats a heap here: our instances have
        at most a few thousand variables and backtracking is frequent,
        so heap maintenance (a push per unassigned literal) costs more
        than one flat pass over two parallel arrays per decision."""
        best_var = 0
        best_activity = -1.0
        assign = self._assign
        activity = self._activity
        for v in range(1, self._num_vars + 1):
            if assign[v] == 0 and activity[v] > best_activity:
                best_activity = activity[v]
                best_var = v
        if best_var == 0:
            return 0
        return best_var if self._phase[best_var] else -best_var

    def _bump(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _decay_activities(self) -> None:
        self._var_inc /= VAR_DECAY

    # ------------------------------------------------------------------
    # learned-clause database reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Drop the worst half of the learned clauses and compact.

        Must be called at decision level 0, where the only locked
        clauses (reasons of trail literals) are root-implied.
        Keeps glue clauses (LBD <= ``REDUCE_KEEP_LBD``), binary clauses
        and locked clauses; among the rest, drops the half with the
        highest ``(lbd, -stamp)`` — worst LBD first, oldest first on
        ties.
        """
        assert self._decision_level() == 0
        self._next_reduce = self._conflicts + REDUCE_INTERVAL
        lbds = self._clause_lbd
        lens = self._clause_len
        stamps = self._clause_stamp
        locked = {
            self._reason[abs(lit)] for lit in self._trail
            if self._reason[abs(lit)] != -1
        }
        candidates = [
            ci for ci in range(self._num_clauses)
            if lens[ci] > 0 and lbds[ci] > REDUCE_KEEP_LBD
            and lens[ci] > 2 and ci not in locked
        ]
        if len(candidates) < 16:
            return
        candidates.sort(key=lambda ci: (lbds[ci], -stamps[ci]),
                        reverse=True)
        drop = set(candidates[:len(candidates) // 2])
        if not drop:
            return
        obs.inc("sat.reductions")
        self._compact(drop)

    def _compact(self, drop: set[int]) -> None:
        """Rebuild the arena without the dropped clauses, remapping every
        clause index in watch lists and the reason column."""
        arena = self._arena
        starts = self._clause_start
        lens = self._clause_len
        new_arena: list[int] = []
        new_start: list[int] = []
        new_len: list[int] = []
        new_lbd = array("i")
        new_stamp = array("q")
        remap: dict[int, int] = {}
        for ci in range(self._num_clauses):
            if ci in drop or lens[ci] == 0:
                continue
            remap[ci] = len(new_len)
            new_start.append(len(new_arena))
            start = starts[ci]
            new_arena.extend(arena[start:start + lens[ci]])
            new_len.append(lens[ci])
            new_lbd.append(self._clause_lbd[ci])
            new_stamp.append(self._clause_stamp[ci])
        self._arena = new_arena
        self._clause_start = new_start
        self._clause_len = new_len
        self._clause_lbd = new_lbd
        self._clause_stamp = new_stamp
        self._num_clauses = len(new_len)
        self._deleted = 0
        for li in range(len(self._watches)):
            old_list = self._watches[li]
            compacted: list[int] = []
            for j in range(0, len(old_list), 2):
                new_ci = remap.get(old_list[j])
                if new_ci is not None:
                    compacted.append(new_ci)
                    compacted.append(old_list[j + 1])
            self._watches[li] = compacted
        reasons = self._reason
        for var in range(1, self._num_vars + 1):
            if reasons[var] != -1:
                reasons[var] = remap[reasons[var]]
