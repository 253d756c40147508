"""A from-scratch CDCL SAT solver (the propositional engine of the SMT
layer)."""

from .cdcl import SatSolver

__all__ = ["SatSolver"]
