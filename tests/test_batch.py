"""The batch-triage driver: serial/parallel agreement, ordering,
timeout degradation, and the bounded LRU verdict memo."""

from __future__ import annotations

import pytest

import repro.smt.solver as solver_mod
from repro import obs
from repro.batch import triage_many
from repro.limits import Limits
from repro.logic import le
from repro.logic.intern import Memo
from repro.logic.terms import Var
from repro.smt import SmtSolver
from repro.suite import DIAGNOSTICS

NAMES = [b.name for b in DIAGNOSTICS]


class TestTriageMany:
    def test_serial_classifies_diagnostics(self):
        result = triage_many(NAMES, jobs=1)
        assert result.mode == "serial"
        assert [o.name for o in result.outcomes] == NAMES
        assert all(o.correct for o in result.outcomes)
        assert result.accuracy == 1.0
        assert not result.failures

    def test_parallel_agrees_with_serial(self):
        serial = triage_many(NAMES, jobs=1)
        parallel = triage_many(NAMES, jobs=2)
        assert parallel.mode in ("parallel", "degraded")
        assert [(o.name, o.classification, o.num_queries)
                for o in parallel.outcomes] == \
               [(o.name, o.classification, o.num_queries)
                for o in serial.outcomes]

    def test_results_come_back_in_input_order(self):
        shuffled = list(reversed(NAMES))
        result = triage_many(shuffled, jobs=2)
        assert [o.name for o in result.outcomes] == shuffled

    def test_per_report_deadline_marks_unknown_resource(self):
        result = triage_many(NAMES, jobs=2,
                             limits=Limits(deadline=1e-9, retries=0))
        assert len(result.outcomes) == len(NAMES)
        assert all(o.timed_out for o in result.outcomes)
        assert all(o.classification == "unknown resource"
                   for o in result.outcomes)
        assert all(o.exhausted_kind == "deadline" for o in result.outcomes)
        # resource outcomes degrade the batch instead of failing it
        assert sorted(o.name for o in result.degraded) == sorted(NAMES)
        assert not result.failures

    def test_timeout_param_is_gone(self):
        # the PR-7-era deprecation shim served its "one more release";
        # the spelling now is limits=Limits(deadline=...)
        with pytest.raises(TypeError, match="timeout"):
            triage_many([NAMES[0]], jobs=1, timeout=1e-4)

    def test_worker_errors_become_outcomes(self):
        result = triage_many(["no_such_benchmark"], jobs=1)
        (outcome,) = result.outcomes
        assert outcome.error is not None
        assert outcome.classification == "unknown"

    def test_jobs_clamped_to_report_count(self):
        result = triage_many([NAMES[0]], jobs=8)
        assert result.mode == "serial"     # single report: no pool


class TestVerdictCacheLru:
    """The process-wide ``is_sat`` verdict memo is a bounded LRU
    (:class:`repro.logic.intern.Memo`), here shrunk to a few entries."""

    @pytest.fixture
    def shrink(self, monkeypatch):
        def install(limit: int) -> Memo:
            memo = Memo("test.smt.is_sat", limit)
            monkeypatch.setattr(solver_mod, "_VERDICTS", memo)
            return memo

        obs.reset()
        obs.enable()
        yield install
        obs.disable()
        obs.reset()

    @staticmethod
    def _count(kind: str) -> int:
        return obs.snapshot()["counters"].get(f"smt.is_sat.{kind}", 0)

    def test_cache_keeps_inserting_past_capacity(self, shrink):
        verdicts = shrink(4)
        x = Var("x")
        solver = SmtSolver()
        for i in range(10):
            solver.is_sat(le(x, i))
        assert len(verdicts) == 4               # bounded
        assert self._count("miss") == 10        # still inserting (old bug:
        # inserts stopped at cap); the most recent entries are retained
        assert solver.is_sat(le(x, 9))
        assert self._count("hit") == 1

    def test_lru_evicts_least_recently_used(self, shrink):
        shrink(2)
        x = Var("x")
        solver = SmtSolver()
        a, b, c = le(x, 1), le(x, 2), le(x, 3)
        solver.is_sat(a)
        solver.is_sat(b)
        solver.is_sat(a)        # refresh a; b is now LRU
        solver.is_sat(c)        # evicts b
        hits_before = self._count("hit")
        solver.is_sat(a)
        assert self._count("hit") == hits_before + 1
        solver.is_sat(b)        # miss: was evicted
        assert self._count("miss") == 4
