"""The fault-injection matrix over the Figure 7 suite.

Each solver stage is hit with each fault flavour — ``exhaust`` (the
governor reports the budget gone), ``raise`` (an arbitrary crash at a
checkpoint) and ``sleep`` (a hang the deadline has to cut short) — while
triaging a batch that contains both the targeted report and innocent
bystanders.  The batch must terminate within the deadline envelope, the
targeted report must land in ``BatchResult.degraded`` with per-stage
attribution, and the bystanders' verdicts must be identical to a
fault-free run.

A separate test covers the one fault no checkpoint can observe: a
SIGKILLed worker, which the parallel driver detects via its grace
window and quarantines with no stage attribution.
"""

from __future__ import annotations

import time

import pytest

from repro.batch import triage_many
from repro.limits import STAGES, Limits
from repro.limits.faults import install
from repro.qe.cooper import clear_qe_caches
from repro.schema import TriageVerdict

# All five reports are fast (< 100ms each); the target is the cheapest
# report whose diagnosis ticks every one of the five stages.
TARGET = "p10_toggle"
BYSTANDERS = ["d01_plus_one", "d02_negate", "d03_count", "p09_window"]
SUBSET = BYSTANDERS[:2] + [TARGET] + BYSTANDERS[2:]

DEADLINE = 1.0
LIMITS = Limits(deadline=DEADLINE, retries=0)
FLAVOURS = ("exhaust", "raise", "sleep")


def spec_for(action: str, stage: str) -> str:
    arg = ":30" if action == "sleep" else ""
    return f"{action}{arg}@{stage}@{TARGET}"


def projection(outcome):
    """The fields that must be identical between a fault-free run and
    the bystanders of a faulted run."""
    return (outcome.name, outcome.classification, outcome.num_queries,
            outcome.rounds)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    install(None)
    yield
    install(None)


@pytest.fixture(scope="module")
def baseline():
    install(None)
    result = triage_many(SUBSET, jobs=1, limits=LIMITS)
    assert not result.degraded, "baseline run must be fault-free"
    return {o.name: projection(o) for o in result.outcomes}


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("action", FLAVOURS)
def test_fault_matrix(stage, action, baseline):
    # start from cold memos, as a cold report does: the baseline's checks
    # would otherwise answer the target's, and no checkpoint would run
    clear_qe_caches()
    install(spec_for(action, stage))
    start = time.monotonic()
    result = triage_many(SUBSET, jobs=1, limits=LIMITS)
    wall = time.monotonic() - start
    install(None)

    # terminated within the deadline envelope: one deadline for the
    # faulted report plus the (fast) bystanders and bookkeeping slack
    assert wall < DEADLINE * len(SUBSET) + 5.0

    by_name = {o.name: o for o in result.outcomes}
    assert sorted(by_name) == sorted(SUBSET)

    # the targeted report is quarantined with stage attribution
    target = by_name[TARGET]
    assert target.degraded
    assert [o.name for o in result.degraded] == [TARGET]
    assert target.exhausted_stage == stage
    if action == "exhaust":
        assert target.classification == "unknown resource"
        assert target.exhausted_kind == "injected"
    elif action == "raise":
        assert target.error is not None
        assert "FaultInjected" in target.error
    else:  # sleep: the deadline cuts the hang at the faulted checkpoint
        assert target.classification == "unknown resource"
        assert target.exhausted_kind == "deadline"
        assert target.timed_out

    # bystander verdicts are identical to the fault-free run
    for name in BYSTANDERS:
        assert projection(by_name[name]) == baseline[name]

    # a degraded batch is an answer, not a failure
    assert not result.failures
    assert result.verdict in (TriageVerdict.FALSE_ALARM,
                              TriageVerdict.REAL_BUG,
                              TriageVerdict.UNKNOWN)


def test_retries_refault_deterministically(baseline):
    """A fault that fires once per governor re-fires on every retry, so
    the report exhausts its attempts and is quarantined."""
    install(spec_for("exhaust", "smt"))
    result = triage_many(SUBSET, jobs=1,
                         limits=Limits(deadline=DEADLINE, retries=2))
    install(None)
    target = next(o for o in result.outcomes if o.name == TARGET)
    assert target.attempts == 3
    assert target.degraded
    for name in BYSTANDERS:
        bystander = next(o for o in result.outcomes if o.name == name)
        assert projection(bystander) == baseline[name]


def test_parallel_hang_degrades_with_attribution(monkeypatch, baseline):
    """The acceptance scenario in miniature: a hang injected into one
    stage, a parallel batch under a deadline — the batch finishes, the
    hung report degrades with the right stage, everyone else agrees
    with the fault-free run."""
    monkeypatch.setenv("REPRO_FAULT", spec_for("sleep", "smt"))
    start = time.monotonic()
    result = triage_many(SUBSET, jobs=4, limits=LIMITS)
    wall = time.monotonic() - start

    assert wall < DEADLINE * 3 + 10.0
    target = next(o for o in result.outcomes if o.name == TARGET)
    assert target.classification == "unknown resource"
    assert target.exhausted_stage == "smt"
    assert target.exhausted_kind == "deadline"
    assert target.degraded
    for name in BYSTANDERS:
        bystander = next(o for o in result.outcomes if o.name == name)
        assert projection(bystander) == baseline[name]
    assert not result.failures


def test_killed_worker_is_quarantined(monkeypatch, baseline):
    """SIGKILL leaves no checkpoint to attribute: the grace window must
    notice the lost worker and quarantine the report."""
    monkeypatch.setenv("REPRO_FAULT", f"kill@smt@{TARGET}")
    start = time.monotonic()
    result = triage_many(SUBSET, jobs=2, limits=LIMITS)
    wall = time.monotonic() - start

    # grace window = 1.5x deadline + 0.5s per attempt, plus slack
    assert wall < (DEADLINE * 1.5 + 0.5) * 2 + 10.0
    target = next(o for o in result.outcomes if o.name == TARGET)
    assert target.classification == "unknown resource"
    assert target.timed_out
    assert target.error is not None
    assert "unresponsive" in target.error
    assert target.degraded
    assert target.exhausted_stage is None      # nobody saw it die
    for name in BYSTANDERS:
        bystander = next(o for o in result.outcomes if o.name == name)
        assert projection(bystander) == baseline[name]
    assert not result.failures


def test_kill_fault_is_harmless_in_serial_mode():
    """A kill spec must never take down the orchestrating process: in
    serial mode (no marked worker) it downgrades to a crash outcome."""
    install(f"kill@smt@{TARGET}")
    result = triage_many([TARGET], jobs=1, limits=LIMITS)
    install(None)
    (outcome,) = result.outcomes
    assert outcome.error is not None
    assert "FaultInjected" in outcome.error
    assert outcome.degraded


def test_cli_exit_code_reports_degraded_batches():
    """Per the status contract a degraded batch exits 3 — degradation
    outranks any real-bug verdicts also present in the batch."""
    from repro.cli import _triage_exit_code
    from repro.schema import EXIT_DEGRADED

    install(spec_for("sleep", "smt"))
    result = triage_many(SUBSET, jobs=1, limits=LIMITS)
    install(None)
    assert result.degraded
    assert _triage_exit_code(result) == EXIT_DEGRADED
