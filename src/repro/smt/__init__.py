"""Lazy SMT solving for linear integer arithmetic (SAT + Omega test)."""

from .solver import (
    SmtResult,
    SmtSolver,
    atom_polarity,
    entails,
    equivalent,
    get_model,
    is_sat,
    is_valid,
)

__all__ = [
    "SmtResult",
    "SmtSolver",
    "atom_polarity",
    "entails",
    "equivalent",
    "get_model",
    "is_sat",
    "is_valid",
]
