"""Linear integer arithmetic terms and formulas.

This package is the logical foundation of the reproduction: immutable
linear terms, normalized Presburger formulas, normal forms, and a small
concrete syntax.  Decision procedures live in :mod:`repro.lia`,
:mod:`repro.smt` and :mod:`repro.qe`.
"""

from .formulas import (
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
    eq,
    exists,
    forall,
    ge,
    gt,
    implies,
    is_quantifier_free,
    le,
    lt,
    map_atoms,
    ne,
    neg,
    rename_vars,
    unique_atoms,
)
from .digest import DIGEST_VERSION, digest, digest_many, digest_text
from .normal_forms import cnf_clauses, dnf_clauses, from_cnf, from_dnf, nnf
from .serialize import (
    formula_from_obj,
    formula_to_obj,
    term_from_obj,
    term_to_obj,
)
from .parser import FormulaParseError, parse_formula, parse_term
from .printer import term_to_source, to_source
from .terms import (
    LinTerm,
    Var,
    VarKind,
    VarSupply,
    abstraction_var,
    gcd_all,
    input_var,
    lcm,
    lcm_all,
)

__all__ = [
    "FALSE", "TRUE", "And", "Atom", "Dvd", "Exists", "Forall", "Formula",
    "Not", "Or", "Rel", "atom", "conj", "disj", "dvd", "eq", "exists",
    "forall", "ge", "gt", "implies", "is_quantifier_free", "le", "lt",
    "map_atoms", "ne", "neg", "rename_vars", "unique_atoms",
    "cnf_clauses", "dnf_clauses", "from_cnf", "from_dnf", "nnf",
    "DIGEST_VERSION", "digest", "digest_many", "digest_text",
    "formula_from_obj", "formula_to_obj", "term_from_obj", "term_to_obj",
    "FormulaParseError", "parse_formula", "parse_term",
    "term_to_source", "to_source",
    "LinTerm", "Var", "VarKind", "VarSupply", "abstraction_var", "gcd_all",
    "input_var", "lcm", "lcm_all",
]
