"""Linear integer terms and analysis variables.

The whole reproduction works in linear arithmetic over the integers (the
theory the paper fixes for its constraints).  A term is an affine expression

    c0 + c1*x1 + ... + cn*xn

with integer coefficients.  Variables carry a *kind* distinguishing the two
sorts of analysis variables the paper introduces (Section 3):

* ``INPUT`` variables (``nu``) model unknown program inputs, and
* ``ABSTRACTION`` variables (``alpha``) model values lost to analysis
  imprecision (loops, non-linear arithmetic, library calls).

``PROGRAM`` variables appear in source-level predicates before the analysis
maps them to analysis variables, and ``AUX`` variables are internal fresh
variables used by decision procedures (quantifier elimination, divisibility
lowering).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Iterable, Iterator, Mapping

from .intern import INTERN_LIMIT, register_table


class VarKind(Enum):
    """Sort of a variable, mirroring the paper's classification."""

    INPUT = "input"          # nu: value of a program input
    ABSTRACTION = "abstraction"  # alpha: value lost to imprecision
    PROGRAM = "program"      # source-level program variable
    AUX = "aux"              # internal fresh variable


@dataclass(frozen=True, order=True)
class Var:
    """An integer-valued variable.

    ``origin`` optionally records the program entity the variable stands
    for (e.g. the program variable havocked at a loop, and the loop label),
    which Section 4.4 uses to render queries in terms the user understands.
    """

    name: str
    kind: VarKind = VarKind.PROGRAM
    origin: tuple[str, ...] = field(default=(), compare=False)
    _hc: int | None = field(default=None, init=False, repr=False,
                            compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name

    def __str__(self) -> str:
        return self.name

    @property
    def is_input(self) -> bool:
        return self.kind is VarKind.INPUT

    @property
    def is_abstraction(self) -> bool:
        return self.kind is VarKind.ABSTRACTION


class VarSupply:
    """A deterministic supply of fresh variables.

    Decision procedures must never capture user variables; they draw fresh
    ``AUX`` variables from a supply seeded with every name already in scope.
    """

    def __init__(self, avoid: Iterable[Var] = (), prefix: str = "$t"):
        self._taken = {v.name for v in avoid}
        self._prefix = prefix
        self._counter = itertools.count()

    def reserve(self, variables: Iterable[Var]) -> None:
        """Mark more names as taken."""
        self._taken.update(v.name for v in variables)

    def fresh(self, hint: str | None = None, kind: VarKind = VarKind.AUX) -> Var:
        """Return a variable whose name collides with nothing reserved."""
        base = hint if hint is not None else self._prefix
        while True:
            name = f"{base}{next(self._counter)}"
            if name not in self._taken:
                self._taken.add(name)
                return Var(name, kind)


def input_var(name: str, origin: tuple[str, ...] = ()) -> Var:
    """Construct an input (nu) variable."""
    return Var(name, VarKind.INPUT, origin)


def abstraction_var(name: str, origin: tuple[str, ...] = ()) -> Var:
    """Construct an abstraction (alpha) variable."""
    return Var(name, VarKind.ABSTRACTION, origin)


class LinTerm:
    """An affine integer term ``const + sum(coeffs[v] * v)``.

    Immutable; all arithmetic returns new terms.  Zero coefficients are
    never stored, which makes structural equality coincide with semantic
    equality of affine forms.

    Terms are hash-consed: structurally equal terms are the same object
    (see :mod:`repro.logic.intern`), so ``__eq__`` is usually an identity
    check and ``__hash__`` a precomputed field.
    """

    __slots__ = ("coeffs", "const", "_hc", "_dg", "_vars")

    _intern: ClassVar[dict] = register_table("LinTerm", {})

    def __new__(cls, coeffs: tuple[tuple[Var, int], ...] = (),
                const: int = 0) -> "LinTerm":
        key = (coeffs, const)
        table = cls._intern
        self = table.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "_hc", hash(("LinTerm", coeffs, const)))
        object.__setattr__(self, "_vars", None)
        if len(table) < INTERN_LIMIT:
            table[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinTerm is immutable")

    def __hash__(self) -> int:
        return self._hc

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not LinTerm:
            return NotImplemented
        return (self._hc == other._hc and self.const == other.const
                and self.coeffs == other.coeffs)

    def __reduce__(self):
        # unpickling re-interns, restoring identity semantics in-process
        return (LinTerm, (self.coeffs, self.const))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def make(coeffs: Mapping[Var, int] | Iterable[tuple[Var, int]] = (),
             const: int = 0) -> "LinTerm":
        """Normalize a coefficient mapping into a ``LinTerm``.

        Coefficients for the same variable are summed; zeros are dropped;
        variables are stored in sorted order so equal terms compare equal.
        """
        acc: dict[Var, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for var, coeff in items:
            if not isinstance(coeff, int):
                raise TypeError(f"non-integer coefficient {coeff!r} for {var}")
            acc[var] = acc.get(var, 0) + coeff
        pruned = tuple(sorted(
            ((v, c) for v, c in acc.items() if c != 0),
            key=lambda item: item[0].name,
        ))
        return LinTerm(pruned, const)

    @staticmethod
    def constant(value: int) -> "LinTerm":
        return LinTerm((), value)

    @staticmethod
    def var(v: Var, coeff: int = 1) -> "LinTerm":
        if coeff == 0:
            return LinTerm((), 0)
        return LinTerm(((v, coeff),), 0)

    ZERO: ClassVar["LinTerm"]
    ONE: ClassVar["LinTerm"]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def coeff(self, v: Var) -> int:
        """Coefficient of ``v`` (0 when absent)."""
        for var, c in self.coeffs:
            if var == v:
                return c
        return 0

    @property
    def variables(self) -> frozenset[Var]:
        # cached: terms are hash-consed, and the Omega test asks for the
        # variable set of the same terms over and over while partitioning
        # constraints by eliminated variable
        cached = self._vars
        if cached is None:
            cached = frozenset(v for v, _ in self.coeffs)
            object.__setattr__(self, "_vars", cached)
        return cached

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __iter__(self) -> Iterator[tuple[Var, int]]:
        return iter(self.coeffs)

    def content(self) -> int:
        """gcd of the variable coefficients (0 for constant terms)."""
        g = 0
        for _, c in self.coeffs:
            g = _gcd(g, abs(c))
        return g

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "LinTerm | int") -> "LinTerm":
        other = _coerce(other)
        merged = dict(self.coeffs)
        for v, c in other.coeffs:
            merged[v] = merged.get(v, 0) + c
        return LinTerm.make(merged, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other: "LinTerm | int") -> "LinTerm":
        return self + (-_coerce(other))

    def __rsub__(self, other: "LinTerm | int") -> "LinTerm":
        return _coerce(other) + (-self)

    def __neg__(self) -> "LinTerm":
        return self.scale(-1)

    def scale(self, factor: int) -> "LinTerm":
        if factor == 0:
            return LinTerm.ZERO
        if factor == 1:
            return self
        return LinTerm(
            tuple((v, c * factor) for v, c in self.coeffs),
            self.const * factor,
        )

    def __mul__(self, factor: int) -> "LinTerm":
        if not isinstance(factor, int):
            return NotImplemented
        return self.scale(factor)

    __rmul__ = __mul__

    def exact_div(self, divisor: int) -> "LinTerm":
        """Divide every coefficient by ``divisor``; must be exact."""
        if divisor == 0:
            raise ZeroDivisionError("exact_div by zero")
        coeffs = []
        for v, c in self.coeffs:
            q, r = divmod(c, divisor)
            if r:
                raise ValueError(f"{self} not divisible by {divisor}")
            coeffs.append((v, q))
        q, r = divmod(self.const, divisor)
        if r:
            raise ValueError(f"{self} not divisible by {divisor}")
        return LinTerm(tuple(coeffs), q)

    # ------------------------------------------------------------------
    # evaluation and substitution
    # ------------------------------------------------------------------
    def evaluate(self, env: Mapping[Var, int]) -> int:
        """Evaluate under a total assignment to this term's variables."""
        total = self.const
        for v, c in self.coeffs:
            total += c * env[v]
        return total

    def substitute(self, mapping: Mapping[Var, "LinTerm"]) -> "LinTerm":
        """Replace variables by terms (simultaneous substitution)."""
        if not any(v in mapping for v, _ in self.coeffs):
            return self
        acc = LinTerm.constant(self.const)
        for v, c in self.coeffs:
            replacement = mapping.get(v)
            if replacement is None:
                acc = acc + LinTerm.var(v, c)
            else:
                acc = acc + replacement.scale(c)
        return acc

    def rename(self, mapping: Mapping[Var, Var]) -> "LinTerm":
        """Rename variables (injective renaming)."""
        return LinTerm.make(
            [(mapping.get(v, v), c) for v, c in self.coeffs], self.const
        )

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts: list[str] = []
        for v, c in self.coeffs:
            if not parts:
                if c == 1:
                    parts.append(f"{v}")
                elif c == -1:
                    parts.append(f"-{v}")
                else:
                    parts.append(f"{c}*{v}")
            else:
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                parts.append(f" {sign} {v}" if mag == 1 else f" {sign} {mag}*{v}")
        if self.const > 0:
            parts.append(f" + {self.const}")
        elif self.const < 0:
            parts.append(f" - {-self.const}")
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinTerm({self})"


LinTerm.ZERO = LinTerm((), 0)
LinTerm.ONE = LinTerm((), 1)


def _coerce(value: "LinTerm | int") -> LinTerm:
    if isinstance(value, LinTerm):
        return value
    if isinstance(value, int):
        return LinTerm.constant(value)
    raise TypeError(f"cannot coerce {value!r} to LinTerm")


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def gcd_all(values: Iterable[int]) -> int:
    """gcd of a collection (0 for the empty collection)."""
    g = 0
    for v in values:
        g = _gcd(g, v)
    return g


def lcm(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // _gcd(a, b)


def lcm_all(values: Iterable[int]) -> int:
    result = 1
    for v in values:
        result = lcm(result, v)
    return result


# ---------------------------------------------------------------------------
# cached hashing
#
# Terms and formulas are immutable trees that live in sets and dict keys
# throughout the solver stack; recomputing a deep hash on every use turns
# hashing into the dominant cost.  Each node caches its hash at first use
# (children's hashes are already cached, so the amortized cost is O(1) per
# node), and equality fast-paths on identity and hash.
# ---------------------------------------------------------------------------

def _install_hash_cache(cls, field_names):
    def __hash__(self):
        h = self._hc
        if h is None:
            h = hash((cls.__name__,)
                     + tuple(getattr(self, n) for n in field_names))
            object.__setattr__(self, "_hc", h)
        return h

    original_eq = cls.__eq__

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self) and not isinstance(other, cls):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return original_eq(self, other)

    cls.__hash__ = __hash__
    cls.__eq__ = __eq__


_install_hash_cache(Var, ("name", "kind"))
