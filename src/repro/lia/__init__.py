"""Integer linear arithmetic decision procedures (the Omega test).

Decides satisfiability of *conjunctions* of linear integer literals and
produces integer models and minimal unsat cores.  Full boolean structure
is handled one level up, in :mod:`repro.smt`.
"""

from .omega import (
    Model,
    OmegaSolver,
    is_sat_literals,
    solve_literals,
    unsat_core,
)

__all__ = [
    "Model",
    "OmegaSolver",
    "is_sat_literals",
    "solve_literals",
    "unsat_core",
]
