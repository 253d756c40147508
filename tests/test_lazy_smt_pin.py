"""A pin of the lazy SMT solver's answers, the observable output of the
CDCL engine beneath it.

Every ``SmtSolver._check_lazy`` call is recorded as the content digest
of the formula it decides, the verdict and the model's
``(variable name, value)`` pairs, over three runs that each start from
empty solver memos:

* a cold ``triage_many([name], jobs=1)`` of every Figure-7 report;
* a cold ``Pipeline().repair`` of the six false alarms;
* round-0 ``abduce_stage`` on seven generated programs.

The pin hashes the sorted, de-duplicated rows.  The order of the calls
follows the interpreter's hash seed, the set of rows does not (CI runs
this file under two seeds).  A change to propagation, conflict
analysis, branching or phase saving changes models, and with them MSA
assignments and store bytes; it must show here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Pipeline
from repro.batch import triage_many
from repro.diagnosis import EngineConfig, stages
from repro.diagnosis.abduction import Abducer
from repro.logic import digest
from repro.logic.intern import clear_memos
from repro.smt import SmtSolver
from repro.suite import BENCHMARKS, front_end

from .strategies import random_program

GENERATED_SEEDS = (2, 7, 8, 18, 34, 37, 39)

ROWS = 697
PIN = "3e5478d11c689a2b9133504b8d052bf35d5b7e2b73df72bb04046b117b5dacb5"


def lazy_answers() -> list[str]:
    rows: set[str] = set()
    check_lazy = SmtSolver._check_lazy

    def recording(self, phi):
        result = check_lazy(self, phi)
        model = sorted((v.name, value)
                       for v, value in (result.model or {}).items())
        rows.add(json.dumps([digest(phi), result.sat, model]))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SmtSolver, "_check_lazy", recording)
        clear_memos()
        for bench in BENCHMARKS:
            triage_many([bench.name], jobs=1)
        clear_memos()
        for bench in BENCHMARKS:
            if bench.is_false_alarm:
                Pipeline().repair(bench.name)
        clear_memos()
        for seed in GENERATED_SEEDS:
            _program, analysis = front_end(random_program(seed))
            stages.abduce_stage(
                Abducer(solver=SmtSolver()), EngineConfig(),
                analysis.invariants, analysis.success)
    return sorted(rows)


def test_lazy_smt_answers_match_the_pin():
    rows = lazy_answers()
    assert len(rows) == ROWS
    blob = json.dumps(rows).encode()
    assert hashlib.sha256(blob).hexdigest() == PIN
