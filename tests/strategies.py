"""Hypothesis strategies for random terms, atoms and formulas, and a
seeded generator of random source programs.

Small coefficient/constant magnitudes keep brute-force boxes meaningful:
a radius-3 box decides most facts about terms with coefficients in
[-3, 3] and constants in [-4, 4].
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.logic import (
    LinTerm,
    Rel,
    Var,
    atom,
    conj,
    disj,
    dvd,
    neg,
)

VARS = [Var("x"), Var("y"), Var("z")]


@st.composite
def lin_terms(draw, variables=None, max_coeff: int = 3, max_const: int = 4):
    variables = variables or VARS
    coeffs = [
        (v, draw(st.integers(-max_coeff, max_coeff))) for v in variables
    ]
    const = draw(st.integers(-max_const, max_const))
    return LinTerm.make(coeffs, const)


@st.composite
def atoms(draw, variables=None, with_dvd: bool = True):
    term = draw(lin_terms(variables))
    if with_dvd and draw(st.booleans()) and draw(st.booleans()):
        divisor = draw(st.integers(2, 5))
        negated = draw(st.booleans())
        return dvd(divisor, term, negated)
    rel = draw(st.sampled_from([Rel.LE, Rel.EQ, Rel.NE]))
    return atom(rel, term)


@st.composite
def formulas(draw, variables=None, max_depth: int = 3, with_dvd: bool = True):
    depth = draw(st.integers(0, max_depth))
    return _formula(draw, depth, variables, with_dvd)


def _formula(draw, depth, variables, with_dvd):
    if depth == 0:
        return draw(atoms(variables, with_dvd=with_dvd))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(atoms(variables, with_dvd=with_dvd))
    if choice == 1:
        return neg(_formula(draw, depth - 1, variables, with_dvd))
    parts = [
        _formula(draw, depth - 1, variables, with_dvd)
        for _ in range(draw(st.integers(2, 3)))
    ]
    return conj(*parts) if choice == 2 else disj(*parts)


@st.composite
def literal_lists(draw, variables=None, min_size: int = 1, max_size: int = 6,
                  with_dvd: bool = True):
    """Random conjunctions of literals for the Omega-test tests."""
    size = draw(st.integers(min_size, max_size))
    return [draw(atoms(variables, with_dvd=with_dvd)) for _ in range(size)]


@st.composite
def deep_formulas(draw, variables=None, max_depth: int = 7,
                  with_dvd: bool = True):
    """Deeply nested formulas with deliberately *shared* subformulas.

    Each step either wraps the running formula or combines it with a
    copy of itself under the opposite connective, so the hash-consed
    result is a DAG whose printed tree is much larger than its node
    count — the shape that stresses normalization and digest traversal.
    """
    phi = draw(atoms(variables, with_dvd=with_dvd))
    for _ in range(draw(st.integers(3, max_depth))):
        op = draw(st.integers(0, 3))
        fresh = draw(atoms(variables, with_dvd=with_dvd))
        if op == 0:
            phi = neg(phi)
        elif op == 1:
            phi = conj(disj(phi, fresh), disj(phi, neg(fresh)))
        elif op == 2:
            phi = disj(conj(phi, fresh), conj(phi, neg(fresh)))
        else:
            phi = conj(phi, disj(fresh, phi))
    return phi


@st.composite
def cnf_instances(draw, max_vars: int = 8, max_clauses: int = 30,
                  max_width: int = 4):
    """Random propositional CNF instances as ``(num_vars, clauses)``.

    Clauses are lists of nonzero signed ints in DIMACS convention.
    Small enough for a brute-force enumerator to decide, wide enough to
    reach conflicts, restarts and clause learning in the CDCL solver.
    """
    num_vars = draw(st.integers(1, max_vars))
    num_clauses = draw(st.integers(1, max_clauses))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(1, max_width))
        clauses.append([
            draw(st.integers(1, num_vars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(width)
        ])
    return num_vars, clauses


@st.composite
def linear_systems(draw, max_vars: int = 5, max_atoms: int = 8,
                   max_coeff: int = 4, max_const: int = 12):
    """Random inequality/equality systems as lists of LE/EQ atoms.

    Denser and wider than :func:`literal_lists` (several variables per
    atom, all atoms linear), so the Omega test's elimination steps run
    real Gaussian/Fourier–Motzkin batches.
    """
    variables = VARS + [Var("u"), Var("w")]
    count = draw(st.integers(2, max_atoms))
    num_vars = draw(st.integers(2, max_vars))
    chosen = variables[:num_vars]
    system = []
    for _ in range(count):
        coeffs = [
            (v, draw(st.integers(-max_coeff, max_coeff))) for v in chosen
        ]
        term = LinTerm.make(
            coeffs, draw(st.integers(-max_const, max_const))
        )
        rel = draw(st.sampled_from([Rel.LE, Rel.LE, Rel.LE, Rel.EQ]))
        system.append(atom(rel, term))
    return system


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

class _ProgramGen:
    """Builds one random program from one seeded RNG (see
    :func:`random_program`)."""

    DATA = ("x", "y", "z")
    HAVOCS = ("h", "g")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.params = [("a", False), ("b", True), ("c", rng.random() < 0.5)]
        if rng.random() < 0.25:
            self.params.append(("d", rng.random() < 0.5))
        self.counters: list[str] = []

    def param(self) -> str:
        return self.rng.choice(self.params)[0]

    def operand(self, names: list[str]) -> str:
        r = self.rng
        roll = r.random()
        if roll < 0.15:
            return str(r.randint(-2, 3))
        if roll < 0.35:
            # a product the analysis abstracts: parameters are never
            # constant
            return f"{self.param()} * {r.choice(names)}"
        return r.choice(names)

    def expr(self, names: list[str] | None = None) -> str:
        names = names or [p for p, _ in self.params] + list(self.DATA) \
            + list(self.HAVOCS)
        text = self.operand(names)
        for _ in range(self.rng.randint(0, 2)):
            text += f" {self.rng.choice('+-')} {self.operand(names)}"
        return text

    def cmp(self) -> str:
        op = self.rng.choice(["<", "<=", "==", "!=", ">", ">="])
        return f"{self.expr()} {op} {self.expr()}"

    def pred(self) -> str:
        r = self.rng
        roll = r.random()
        if roll < 0.4:
            return self.cmp()
        op = r.choice(["&&", "||"])
        if roll < 0.7:
            # a parameter test that decides, at 0, whether the right
            # side (often a product) runs
            guard = f"{self.param()} {'!=' if op == '&&' else '=='} 0"
            return f"{guard} {op} {self.cmp()}"
        return f"{self.cmp()} {op} {self.cmp()}"

    def havoc(self, pad: str) -> list[str]:
        r = self.rng
        target = r.choice(self.HAVOCS)
        others = [p for p, _ in self.params] + list(self.DATA) + [
            h for h in self.HAVOCS if h != target]
        bound = self.expr(others)
        # satisfiable, and wide enough that few draws miss: a miss draws
        # again, up to 64 times
        assume = r.choice([
            None,
            f"{target} >= {bound}",
            f"{target} <= {bound} + {r.randint(0, 3)}",
            f"{target} >= {bound} && {target} <= {bound} + 40",
            f"{target} != {bound}",
        ])
        suffix = f" @assume({assume})" if assume else ""
        return [f"{pad}havoc {target}{suffix};"]

    def block(self, depth: int, indent: int) -> list[str]:
        lines: list[str] = []
        for _ in range(self.rng.randint(1, 2)):
            lines += self.stmt(depth, indent)
        return lines

    def stmt(self, depth: int, indent: int) -> list[str]:
        r = self.rng
        pad = "  " * indent
        roll = r.random()
        if depth > 0 and roll < 0.25:
            lines = [f"{pad}if ({self.pred()}) {{",
                     *self.block(depth - 1, indent + 1)]
            if r.random() < 0.6:
                lines += [f"{pad}}} else {{",
                          *self.block(depth - 1, indent + 1)]
            return lines + [f"{pad}}}"]
        if depth > 0 and roll < 0.5:
            # a counted loop: it terminates whatever its body does
            counter = f"i{len(self.counters) + 1}"
            self.counters.append(counter)
            cond = f"{counter} < {self.param()} + {r.randint(0, 2)}"
            if r.random() < 0.4:
                cond += f" && {self.cmp()}"
            return [f"{pad}{counter} = 0;",
                    f"{pad}while ({cond}) {{",
                    *self.block(depth - 1, indent + 1),
                    f"{pad}  {counter} = {counter} + 1;",
                    f"{pad}}}"]
        if roll < 0.75:
            return self.havoc(pad)
        return [f"{pad}{r.choice(self.DATA)} = {self.expr()};"]

    def program(self) -> str:
        r = self.rng
        stmts = [self.stmt(2, 1) for _ in range(r.randint(3, 5))]
        if r.random() < 0.35:
            # reaches k == 0 only for odd p >= -1: it diverges at 0
            stmts.insert(r.randint(0, len(stmts)), [
                f"  k = {self.param()} + 1;",
                "  while (k != 0) {",
                "    k = k - 2;",
                "  }"])
        body = [line for stmt in stmts for line in stmt]
        params = ", ".join(("unsigned " if unsigned else "") + p
                           for p, unsigned in self.params)
        names = [*self.DATA, *self.HAVOCS, "k", *self.counters]
        return "\n".join([
            f"program gen({params}) {{",
            "  var " + ", ".join(f"{n} = 0" for n in names) + ";",
            *body,
            f"  assert({self.pred()});",
            "}",
        ])


def random_program(seed: int) -> str:
    """Source text of a random program, the same for the same seed.

    Three or four parameters, some unsigned; assignments with products;
    havocs whose ``@assume`` reads other variables and parameters; nested
    ``if``s and counted ``while``s; conditions with products behind
    ``&&``/``||``, often guarded by a parameter test that short-circuits
    at 0; and, in about a third of the programs, a top-level loop
    ``k = p + 1; while (k != 0) { k = k - 2; }`` that ends only for odd
    ``p >= -1``, so it diverges at 0.
    """
    return _ProgramGen(random.Random(seed)).program()
