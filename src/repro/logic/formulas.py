"""Formulas of linear integer arithmetic (Presburger arithmetic).

The formula language is the paper's constraint language — boolean
combinations of linear comparisons over integers — extended with the
divisibility atoms that Cooper's quantifier-elimination procedure
introduces, and with quantifiers (needed transiently by Lemmas 3 and 5).

Atoms are aggressively normalized at construction time:

* every comparison becomes ``t <= 0``, ``t = 0`` or ``t != 0`` for a linear
  term ``t`` (strict comparisons are integer-tightened: ``t < 0`` becomes
  ``t + 1 <= 0``);
* coefficients are divided by their gcd, with sound rounding of the
  constant (``2x - 3 <= 0`` becomes ``x - 1 <= 0`` over the integers);
* ground atoms fold to ``TRUE`` / ``FALSE``.

Connectives are n-ary and flattened; duplicate and trivial operands are
removed.  The AST is immutable and hashable so formulas can live in sets.

Every node is hash-consed (see :mod:`repro.logic.intern`): structurally
equal formulas are the same object, equality is usually an identity
check, ``__hash__`` is a precomputed field, and each atom caches its
negation — the three operations that dominate the solver stack.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, ClassVar, Iterator, Mapping, Sequence

from .intern import INTERN_LIMIT, register_table
from .terms import LinTerm, Var, gcd_all


class Rel(Enum):
    """Normalized atom relations."""

    LE = "<="   # t <= 0
    EQ = "="    # t = 0
    NE = "!="   # t != 0


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- structural queries -------------------------------------------------
    def free_vars(self) -> frozenset[Var]:
        raise NotImplementedError

    def atoms(self) -> Iterator["Formula"]:
        """Yield every atomic subformula (Atom / Dvd), including under Not."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> "Formula":
        raise NotImplementedError

    def evaluate(self, env: Mapping[Var, int]) -> bool:
        """Evaluate a quantifier-free formula under a total assignment."""
        raise NotImplementedError

    # -- operators ----------------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)

    def implies(self, other: "Formula") -> "Formula":
        return disj(neg(self), other)

    def iff(self, other: "Formula") -> "Formula":
        return conj(self.implies(other), other.implies(self))

    # -- convenience --------------------------------------------------------
    @property
    def is_true(self) -> bool:
        return isinstance(self, _TrueFormula)

    @property
    def is_false(self) -> bool:
        return isinstance(self, _FalseFormula)

    def size(self) -> int:
        """Number of AST nodes (a crude complexity measure for reporting)."""
        return 1


class _TrueFormula(Formula):

    __slots__ = ()
    _neg = None                    # read by neg(); never written
    _instance: ClassVar["_TrueFormula | None"] = None

    def __new__(cls) -> "_TrueFormula":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_TrueFormula, ())

    def free_vars(self) -> frozenset[Var]:
        return frozenset()

    def atoms(self) -> Iterator[Formula]:
        return iter(())

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> Formula:
        return self

    def evaluate(self, env: Mapping[Var, int]) -> bool:
        return True

    def __str__(self) -> str:
        return "true"

    __repr__ = __str__


class _FalseFormula(Formula):

    __slots__ = ()
    _neg = None
    _instance: ClassVar["_FalseFormula | None"] = None

    def __new__(cls) -> "_FalseFormula":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_FalseFormula, ())

    def free_vars(self) -> frozenset[Var]:
        return frozenset()

    def atoms(self) -> Iterator[Formula]:
        return iter(())

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> Formula:
        return self

    def evaluate(self, env: Mapping[Var, int]) -> bool:
        return False

    def __str__(self) -> str:
        return "false"

    __repr__ = __str__


TRUE: Formula = _TrueFormula()
FALSE: Formula = _FalseFormula()


class Atom(Formula):
    """A normalized linear atom ``term REL 0``.

    Use the :func:`le`, :func:`lt`, :func:`eq_atom` ... helpers (or
    :func:`atom`) rather than the raw constructor: they perform the
    normalization the rest of the system relies on.
    """

    __slots__ = ("rel", "term", "_hc", "_neg", "_dg")

    _intern: ClassVar[dict] = register_table("Atom", {})

    def __new__(cls, rel: Rel, term: LinTerm) -> "Atom":
        key = (rel, term)
        table = cls._intern
        self = table.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "rel", rel)
        _set(self, "term", term)
        _set(self, "_hc", hash(("Atom", rel, term)))
        _set(self, "_neg", None)
        if len(table) < INTERN_LIMIT:
            table[key] = self
        return self

    def __reduce__(self):
        return (Atom, (self.rel, self.term))

    def __hash__(self) -> int:
        return self._hc

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Atom:
            return NotImplemented
        return (self._hc == other._hc and self.rel is other.rel
                and self.term == other.term)

    def free_vars(self) -> frozenset[Var]:
        return self.term.variables

    def atoms(self) -> Iterator[Formula]:
        yield self

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> Formula:
        return atom(self.rel, self.term.substitute(mapping))

    def evaluate(self, env: Mapping[Var, int]) -> bool:
        value = self.term.evaluate(env)
        if self.rel is Rel.LE:
            return value <= 0
        if self.rel is Rel.EQ:
            return value == 0
        return value != 0

    def negated(self) -> Formula:
        """The negation of this atom, itself in atom form (memoized; the
        negation of a normalized atom never folds to a constant)."""
        cached = self._neg
        if cached is not None:
            return cached
        if self.rel is Rel.LE:           # not(t <= 0)  <=>  -t + 1 <= 0
            result = atom(Rel.LE, -self.term + 1)
        elif self.rel is Rel.EQ:
            result = atom(Rel.NE, self.term)
        else:
            result = atom(Rel.EQ, self.term)
        object.__setattr__(self, "_neg", result)
        if isinstance(result, (Atom, Dvd)) and result._neg is None:
            object.__setattr__(result, "_neg", self)
        return result

    def __str__(self) -> str:
        return f"{self.term} {self.rel.value} 0"

    __repr__ = __str__


class Dvd(Formula):
    """Divisibility atom ``divisor | term`` (or its negation).

    These appear in Cooper quantifier-elimination results.  ``divisor`` is
    always >= 2 after normalization.
    """

    __slots__ = ("divisor", "term", "negated_flag", "_hc", "_neg", "_dg")

    _intern: ClassVar[dict] = register_table("Dvd", {})

    def __new__(cls, divisor: int, term: LinTerm,
                negated_flag: bool = False) -> "Dvd":
        key = (divisor, term, negated_flag)
        table = cls._intern
        self = table.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "divisor", divisor)
        _set(self, "term", term)
        _set(self, "negated_flag", negated_flag)
        _set(self, "_hc", hash(("Dvd", divisor, term, negated_flag)))
        _set(self, "_neg", None)
        if len(table) < INTERN_LIMIT:
            table[key] = self
        return self

    def __reduce__(self):
        return (Dvd, (self.divisor, self.term, self.negated_flag))

    def __hash__(self) -> int:
        return self._hc

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Dvd:
            return NotImplemented
        return (self._hc == other._hc
                and self.divisor == other.divisor
                and self.negated_flag == other.negated_flag
                and self.term == other.term)

    def free_vars(self) -> frozenset[Var]:
        return self.term.variables

    def atoms(self) -> Iterator[Formula]:
        yield self

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> Formula:
        return dvd(self.divisor, self.term.substitute(mapping),
                   self.negated_flag)

    def evaluate(self, env: Mapping[Var, int]) -> bool:
        divides = self.term.evaluate(env) % self.divisor == 0
        return divides != self.negated_flag

    def negated(self) -> Formula:
        cached = self._neg
        if cached is not None:
            return cached
        result = dvd(self.divisor, self.term, not self.negated_flag)
        object.__setattr__(self, "_neg", result)
        if isinstance(result, (Atom, Dvd)) and result._neg is None:
            object.__setattr__(result, "_neg", self)
        return result

    def __str__(self) -> str:
        op = "!|" if self.negated_flag else "|"
        return f"{self.divisor} {op} ({self.term})"

    __repr__ = __str__


class Not(Formula):
    """Negation.  Smart constructors push ``Not`` onto atoms eagerly, so a
    ``Not`` node in a normalized formula always wraps a quantifier."""

    __slots__ = ("arg", "_hc", "_neg", "_dg", "_sz")

    _intern: ClassVar[dict] = register_table("Not", {})

    def __new__(cls, arg: Formula) -> "Not":
        table = cls._intern
        self = table.get(arg)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "arg", arg)
        _set(self, "_hc", hash(("Not", arg)))
        _set(self, "_neg", arg)
        _set(self, "_sz", None)
        if len(table) < INTERN_LIMIT:
            table[arg] = self
        return self

    def __reduce__(self):
        return (Not, (self.arg,))

    def __hash__(self) -> int:
        return self._hc

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Not:
            return NotImplemented
        return self._hc == other._hc and self.arg == other.arg

    def free_vars(self) -> frozenset[Var]:
        return self.arg.free_vars()

    def atoms(self) -> Iterator[Formula]:
        return self.arg.atoms()

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> Formula:
        return neg(self.arg.substitute(mapping))

    def evaluate(self, env: Mapping[Var, int]) -> bool:
        return not self.arg.evaluate(env)

    def size(self) -> int:
        cached = self._sz
        if cached is None:
            cached = 1 + self.arg.size()
            object.__setattr__(self, "_sz", cached)
        return cached

    def __str__(self) -> str:
        return f"!({self.arg})"

    __repr__ = __str__


class Connective(Formula):
    """An n-ary conjunction or disjunction: everything :class:`And` and
    :class:`Or` share.

    The smart constructors flatten, deduplicate and fold the parts, so
    ``args`` holds at least two parts, none of them a constant or a node
    of the same class.  A subclass supplies its intern table, its
    ``tag`` (the digest tag and serialized op), the ``fold`` of its
    parts' truth values (``all``/``any``), the ``separator`` its ``str``
    puts between parts, its smart constructor ``build`` and its De
    Morgan ``dual``.
    """

    __slots__ = ("args", "_hc", "_neg", "_fv", "_dg", "_sz")

    _intern: ClassVar[dict]
    tag: ClassVar[str]
    separator: ClassVar[str]
    fold: ClassVar[Callable[..., bool]]
    build: ClassVar[Callable[..., Formula]]
    dual: ClassVar[type["Connective"]]

    def __new__(cls, args: tuple[Formula, ...]) -> "Connective":
        table = cls._intern
        self = table.get(args)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "args", args)
        _set(self, "_hc", hash((cls.__name__, args)))
        _set(self, "_neg", None)
        _set(self, "_fv", None)
        _set(self, "_sz", None)
        if len(table) < INTERN_LIMIT:
            table[args] = self
        return self

    def __reduce__(self):
        return (type(self), (self.args,))

    def __hash__(self) -> int:
        return self._hc

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Connective) or type(other) is not type(self):
            return NotImplemented
        return self._hc == other._hc and self.args == other.args

    def free_vars(self) -> frozenset[Var]:
        cached = self._fv
        if cached is None:
            result: frozenset[Var] = frozenset()
            for arg in self.args:
                result |= arg.free_vars()
            object.__setattr__(self, "_fv", result)
            return result
        return cached

    def atoms(self) -> Iterator[Formula]:
        for arg in self.args:
            yield from arg.atoms()

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> Formula:
        return self.build(*(arg.substitute(mapping) for arg in self.args))

    def evaluate(self, env: Mapping[Var, int]) -> bool:
        return self.fold(arg.evaluate(env) for arg in self.args)

    def size(self) -> int:
        cached = self._sz
        if cached is None:
            cached = 1 + sum(arg.size() for arg in self.args)
            object.__setattr__(self, "_sz", cached)
        return cached

    def __str__(self) -> str:
        return "(" + self.separator.join(str(a) for a in self.args) + ")"

    __repr__ = __str__


class And(Connective):
    """Conjunction; build it with :func:`conj`."""

    __slots__ = ()
    _intern = register_table("And", {})
    tag = "and"
    separator = " & "
    fold = all


class Or(Connective):
    """Disjunction; build it with :func:`disj`."""

    __slots__ = ()
    _intern = register_table("Or", {})
    tag = "or"
    separator = " | "
    fold = any


class Quantifier(Formula):
    """A quantifier block over a body: everything :class:`Exists` and
    :class:`Forall` share.

    A subclass supplies its intern table, its ``tag`` (the digest tag,
    serialized op and the keyword ``str`` prints), its smart constructor
    ``build`` and its ``dual``.
    """

    __slots__ = ("variables", "body", "_hc", "_neg", "_dg", "_sz")

    _intern: ClassVar[dict]
    tag: ClassVar[str]
    build: ClassVar[Callable[..., Formula]]
    dual: ClassVar[type["Quantifier"]]

    def __new__(cls, variables: tuple[Var, ...],
                body: Formula) -> "Quantifier":
        key = (variables, body)
        table = cls._intern
        self = table.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "variables", variables)
        _set(self, "body", body)
        _set(self, "_hc", hash((cls.__name__, variables, body)))
        _set(self, "_neg", None)
        _set(self, "_sz", None)
        if len(table) < INTERN_LIMIT:
            table[key] = self
        return self

    def __reduce__(self):
        return (type(self), (self.variables, self.body))

    def __hash__(self) -> int:
        return self._hc

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Quantifier) or type(other) is not type(self):
            return NotImplemented
        return (self._hc == other._hc and self.variables == other.variables
                and self.body == other.body)

    def free_vars(self) -> frozenset[Var]:
        return self.body.free_vars() - frozenset(self.variables)

    def atoms(self) -> Iterator[Formula]:
        return self.body.atoms()

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> Formula:
        clean = {v: t for v, t in mapping.items() if v not in self.variables}
        for v in self.variables:
            for target in clean.values():
                if v in target.variables:
                    raise ValueError(
                        f"substitution would capture bound variable {v}"
                    )
        return self.build(self.variables, self.body.substitute(clean))

    def evaluate(self, env: Mapping[Var, int]) -> bool:
        raise ValueError("cannot evaluate a quantified formula directly")

    def size(self) -> int:
        cached = self._sz
        if cached is None:
            cached = 1 + self.body.size()
            object.__setattr__(self, "_sz", cached)
        return cached

    def __str__(self) -> str:
        names = ", ".join(str(v) for v in self.variables)
        return f"({self.tag} {names}. {self.body})"

    __repr__ = __str__


class Exists(Quantifier):
    """Existential block; build it with :func:`exists`."""

    __slots__ = ()
    _intern = register_table("Exists", {})
    tag = "exists"


class Forall(Quantifier):
    """Universal block; build it with :func:`forall`."""

    __slots__ = ()
    _intern = register_table("Forall", {})
    tag = "forall"


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------

def atom(rel: Rel, term: LinTerm) -> Formula:
    """Build a normalized atom ``term rel 0``.

    Folds ground atoms, divides by the coefficient gcd (with sound
    integer rounding for LE), and canonicalizes the sign of EQ/NE atoms.
    """
    if term.is_constant:
        value = term.const
        if rel is Rel.LE:
            return TRUE if value <= 0 else FALSE
        if rel is Rel.EQ:
            return TRUE if value == 0 else FALSE
        return TRUE if value != 0 else FALSE

    g = term.content()
    if g > 1:
        coeffs = [(v, c // g) for v, c in term.coeffs]
        if rel is Rel.LE:
            # g*t' + c <= 0  <=>  t' <= floor(-c/g)  <=>  t' - floor(-c/g) <= 0
            bound = -term.const // g  # Python's // floors
            term = LinTerm.make(coeffs, -bound)
        else:
            if term.const % g != 0:
                return FALSE if rel is Rel.EQ else TRUE
            term = LinTerm.make(coeffs, term.const // g)

    if rel in (Rel.EQ, Rel.NE):
        # canonical sign: first (lexicographically least) coefficient > 0
        first_coeff = term.coeffs[0][1]
        if first_coeff < 0:
            term = -term
    return Atom(rel, term)


def dvd(divisor: int, term: LinTerm, negated: bool = False) -> Formula:
    """Build a normalized divisibility atom ``divisor | term``."""
    if divisor == 0:
        raise ValueError("zero divisor in divisibility atom")
    divisor = abs(divisor)
    if divisor == 1:
        return FALSE if negated else TRUE
    # reduce coefficients modulo the divisor
    coeffs = [(v, c % divisor) for v, c in term.coeffs]
    term = LinTerm.make(coeffs, term.const % divisor)
    if term.is_constant:
        holds = term.const % divisor == 0
        return TRUE if holds != negated else FALSE
    g = gcd_all([c for _, c in term.coeffs] + [divisor])
    if g > 1:
        if term.const % g != 0:
            # d | g*t' + c with g | d and g !| c: never divisible
            return TRUE if negated else FALSE
        divisor //= g
        term = term.exact_div(g)
        if divisor == 1:
            return FALSE if negated else TRUE
    return Dvd(divisor, term, negated)


# The smart constructors are pure functions of their argument tuples,
# and the QE/abduction loops rebuild the same conjunctions round after
# round; a bounded result cache turns those rebuilds into one dict hit.
# Registered as intern tables so the memory valve clears them too.
_CONNECTIVE_CACHE_LIMIT = 1 << 15
_conj_cache: dict = register_table("conj()", {})
_disj_cache: dict = register_table("disj()", {})


def conj(*parts: Formula) -> Formula:
    """N-ary conjunction with flattening, deduplication and folding.

    TRUE/FALSE are singletons, so the constant checks are identity
    tests, and the complement check only materializes a negation for
    literal-shaped parts (it can never fold on And/Or anyway).
    """
    cached = _conj_cache.get(parts)
    if cached is not None:
        return cached
    result = _flatten(And, TRUE, FALSE, parts)
    if len(_conj_cache) < _CONNECTIVE_CACHE_LIMIT:
        _conj_cache[parts] = result
    return result


def disj(*parts: Formula) -> Formula:
    """N-ary disjunction with flattening, deduplication and folding."""
    cached = _disj_cache.get(parts)
    if cached is not None:
        return cached
    result = _flatten(Or, FALSE, TRUE, parts)
    if len(_disj_cache) < _CONNECTIVE_CACHE_LIMIT:
        _disj_cache[parts] = result
    return result


def _flatten(cls: type[Connective], unit: Formula, absorbing: Formula,
             parts: tuple[Formula, ...]) -> Formula:
    """The uncached body of :func:`conj` and :func:`disj`: parts that
    are ``cls`` nodes splice in, ``unit`` drops out, and ``absorbing``
    or a complementary literal pair absorbs the whole."""
    flat: list[Formula] = []
    seen: set[Formula] = set()
    stack = list(reversed(parts))
    while stack:
        part = stack.pop()
        if part is unit:
            continue
        if part is absorbing:
            return absorbing
        if isinstance(part, cls):
            stack.extend(reversed(part.args))
            continue
        if part in seen:
            continue
        if isinstance(part, (Atom, Dvd, Not)) and neg(part) in seen:
            return absorbing
        seen.add(part)
        flat.append(part)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def neg(phi: Formula) -> Formula:
    """Negation, pushed through constants, atoms and double negations.

    Memoized on the node: every formula caches its negation (and the
    negation caches the original), so repeated negation — ubiquitous in
    DNF/CNF conversion and QE — costs one attribute read.
    """
    if phi is TRUE:
        return FALSE
    if phi is FALSE:
        return TRUE
    cached = phi._neg
    if cached is not None:
        return cached
    if isinstance(phi, (Atom, Dvd)):
        return phi.negated()
    # a Connective or Quantifier (Not caches its arg at construction)
    result = Not(phi)
    object.__setattr__(phi, "_neg", result)
    return result


def exists(variables: Sequence[Var], body: Formula) -> Formula:
    return _bind(Exists, variables, body)


def forall(variables: Sequence[Var], body: Formula) -> Formula:
    return _bind(Forall, variables, body)


def _bind(cls: type[Quantifier], variables: Sequence[Var],
          body: Formula) -> Formula:
    """``cls`` over the ``variables`` free in ``body``, merged into a
    ``body`` of the same class."""
    vs = tuple(v for v in variables if v in body.free_vars())
    if not vs:
        return body
    if isinstance(body, cls):
        return cls(tuple(dict.fromkeys(vs + body.variables)), body.body)
    return cls(vs, body)


# Each shape's smart constructor and De Morgan dual: set here, where
# both twins and their constructors exist.
And.build, And.dual = staticmethod(conj), Or
Or.build, Or.dual = staticmethod(disj), And
Exists.build, Exists.dual = staticmethod(exists), Forall
Forall.build, Forall.dual = staticmethod(forall), Exists


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return disj(neg(antecedent), consequent)


# ---------------------------------------------------------------------------
# comparison helpers (the surface API used across the codebase)
# ---------------------------------------------------------------------------

def _as_term(value: LinTerm | Var | int) -> LinTerm:
    if isinstance(value, LinTerm):
        return value
    if isinstance(value, Var):
        return LinTerm.var(value)
    if isinstance(value, int):
        return LinTerm.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a term")


def le(lhs: LinTerm | Var | int, rhs: LinTerm | Var | int) -> Formula:
    """lhs <= rhs"""
    return atom(Rel.LE, _as_term(lhs) - _as_term(rhs))


def lt(lhs: LinTerm | Var | int, rhs: LinTerm | Var | int) -> Formula:
    """lhs < rhs  (integer-tightened to lhs + 1 <= rhs)"""
    return atom(Rel.LE, _as_term(lhs) - _as_term(rhs) + 1)


def ge(lhs: LinTerm | Var | int, rhs: LinTerm | Var | int) -> Formula:
    return le(rhs, lhs)


def gt(lhs: LinTerm | Var | int, rhs: LinTerm | Var | int) -> Formula:
    return lt(rhs, lhs)


def eq(lhs: LinTerm | Var | int, rhs: LinTerm | Var | int) -> Formula:
    return atom(Rel.EQ, _as_term(lhs) - _as_term(rhs))


def ne(lhs: LinTerm | Var | int, rhs: LinTerm | Var | int) -> Formula:
    return atom(Rel.NE, _as_term(lhs) - _as_term(rhs))


# ---------------------------------------------------------------------------
# traversal utilities
# ---------------------------------------------------------------------------

def is_quantifier_free(phi: Formula) -> bool:
    return _is_qf(phi, {})


def _is_qf(phi: Formula, memo: dict[int, bool]) -> bool:
    # memoized by identity over the shared-subformula DAG
    key = id(phi)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(phi, Quantifier):
        result = False
    elif isinstance(phi, Not):
        result = _is_qf(phi.arg, memo)
    elif isinstance(phi, Connective):
        result = all(_is_qf(a, memo) for a in phi.args)
    else:
        result = True
    memo[key] = result
    return result


def map_atoms(phi: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild ``phi`` applying ``fn`` to every atom, under quantifiers
    too (``fn`` must not capture a bound variable)."""
    if isinstance(phi, (Atom, Dvd)):
        return fn(phi)
    if isinstance(phi, Not):
        return neg(map_atoms(phi.arg, fn))
    if isinstance(phi, Connective):
        return phi.build(*(map_atoms(a, fn) for a in phi.args))
    if isinstance(phi, Quantifier):
        return phi.build(phi.variables, map_atoms(phi.body, fn))
    return phi


def unique_atoms(phi: Formula) -> list[Formula]:
    """Distinct atoms of ``phi`` in first-occurrence order."""
    seen: dict[Formula, None] = {}
    for a in phi.atoms():
        seen.setdefault(a, None)
    return list(seen)
