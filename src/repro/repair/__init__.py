"""Abductive repair synthesis: verified patches from abduced conditions.

From "is this a real bug?" to "here is the minimal verified fix": the
weakest minimum proof obligation Γ the diagnosis engine computes *is* a
missing-precondition patch, and this package places it back into the
source — as a ``havoc`` ``@assume`` (the paper's missing library
annotation), a strengthened loop ``@post`` (Ilinva's
abduction-to-invariant move), or a guard on the final ``check`` — then
proves every candidate by re-running the whole front end and the
entailment stage on the patched program (Lemma 1 discharge).

Layers:

* :mod:`repro.repair.translate` — logic formulas → source predicates;
* :mod:`repro.repair.candidates` — provenance-driven placement plans;
* :mod:`repro.repair.splice` — structural AST edits;
* :mod:`repro.repair.synthesize` — consistency guard, verification,
  the paper's cost ranking, content-addressed caching, and the
  :class:`RepairPatch` / :class:`RepairResult` result types.

Entry points: ``Pipeline.repair(...)`` (:mod:`repro.api`), the ``repro
repair`` CLI subcommand, and the daemon's ``repair: true`` submission
flag + ``GET /v1/jobs/<id>/patches`` route.
"""

from __future__ import annotations

from .candidates import Plan, final_bindings, plan_placements, \
    stable_inputs
from .splice import Edit, SpliceError, apply_edits
from .synthesize import (
    REPAIR_VERSION,
    EditRecord,
    RepairPatch,
    RepairResult,
    learned_facts,
    synthesize_repairs,
)
from .translate import formula_to_pred

__all__ = [
    "Edit",
    "EditRecord",
    "Plan",
    "REPAIR_VERSION",
    "RepairPatch",
    "RepairResult",
    "SpliceError",
    "apply_edits",
    "final_bindings",
    "formula_to_pred",
    "learned_facts",
    "plan_placements",
    "stable_inputs",
    "synthesize_repairs",
]
