"""Cooper quantifier elimination for Presburger arithmetic."""

from .cooper import (
    decide_closed,
    eliminate_exists,
    eliminate_forall,
    eliminate_quantifiers,
    project,
)

__all__ = [
    "decide_closed",
    "eliminate_exists",
    "eliminate_forall",
    "eliminate_quantifiers",
    "project",
]
