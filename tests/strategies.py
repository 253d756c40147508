"""Hypothesis strategies for random terms, atoms and formulas.

Small coefficient/constant magnitudes keep brute-force boxes meaningful:
a radius-3 box decides most facts about terms with coefficients in
[-3, 3] and constants in [-4, 4].
"""

from __future__ import annotations

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
