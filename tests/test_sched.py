"""Tests for the transport-agnostic scheduler (:mod:`repro.sched`).

Three layers:

* the retry/quarantine core driven through a scripted in-memory
  transport — retries, quarantine, error conversion and the serial
  fallback, with no real triage work where none is needed;
* local backend parity — the pool and serial paths are the same core,
  so their verdict projections agree and neither grows fleet-only
  envelope fields;
* the remote backend end-to-end — two in-process ``repro serve``
  workers sharing one cache root, verdict-identical to the pool,
  including fault injection (the coordinator quarantines a worker-side
  crash) and a dead worker in the fleet list (work re-routes to the
  survivor).
"""

from __future__ import annotations

import socket

import pytest

from repro import limits as limits_mod
from repro import obs
from repro.batch import triage_many
from repro.batch.outcomes import TriageOutcome
from repro.limits import Limits
from repro.limits.faults import install
from repro.sched import Scheduler, TransportBroken, TriageSpec
from repro.serve import TriageServer

# Same subset as the fault-injection matrix: the one report whose
# diagnosis ticks every stage, surrounded by innocent bystanders.
TARGET = "p10_toggle"
BYSTANDERS = ["d01_plus_one", "d02_negate", "d03_count", "p09_window"]
SUBSET = BYSTANDERS[:2] + [TARGET] + BYSTANDERS[2:]

DEADLINE = 1.0
LIMITS = Limits(deadline=DEADLINE, retries=0)


def projection(outcome):
    """The fields that must agree across backends for one report."""
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
    assert not result.degraded
    return {o.name: projection(o) for o in result.outcomes}


def counter(name: str) -> int:
    return obs.snapshot()["counters"].get(name, 0)


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry at once: the scheduler's backoff sleep only slows tests."""
    monkeypatch.setattr(limits_mod, "BACKOFF", 0.0)


# ---------------------------------------------------------------------------
# the retry core, driven through a scripted transport
# ---------------------------------------------------------------------------

class ScriptedTransport:
    """An in-memory transport: each report fails its first
    ``failures[name]`` attempts with an error outcome, then succeeds.
    The handle *is* the outcome, like InlineTransport's."""

    parallelism = 1
    broken_exceptions: tuple = ()
    idle_delay = 0.0

    def __init__(self, failures: dict[str, int] | None = None):
        self.failures = dict(failures or {})
        self.submits: list[tuple[str, int]] = []
        self.closed_with: bool | None = None

    def open(self):
        pass

    def submit(self, task):
        self.submits.append((task.name, task.attempt))
        if task.attempt < self.failures.get(task.name, 0):
            return TriageOutcome(
                name=task.name, classification="unknown",
                error="ScriptedFault: worker crashed")
        return TriageOutcome(name=task.name, classification="false alarm")

    def done(self, handle):
        return True

    def result(self, handle):
        return handle

    def cancel(self, handle):
        pass

    def rebuild(self):
        pass

    def close(self, *, force=False):
        self.closed_with = force


class RaisingResultTransport(ScriptedTransport):
    """``result`` raises — worker death the scheduler must convert into
    a per-report error outcome, never into transport breakage."""

    def result(self, handle):
        raise RuntimeError("worker process died")


class BrokenSubmitTransport(ScriptedTransport):
    """``submit`` raises TransportBroken — machinery failure, which the
    scheduler survives by finishing the batch in-process."""

    def submit(self, task):
        raise TransportBroken("no workers at all")


class TestRetryCore:
    def test_flaky_report_is_retried_then_succeeds(self, live_counters,
                                                   no_backoff):
        transport = ScriptedTransport({"a": 1})
        before = counter("batch.retries")
        outcomes, broke = Scheduler(
            transport, limits=Limits(retries=2),
        ).run(["a", "b"])
        assert not broke
        by_name = {o.name: o for o in outcomes}
        assert by_name["a"].classification == "false alarm"
        assert by_name["a"].attempts == 2
        assert not by_name["a"].degraded
        assert by_name["b"].attempts == 1
        assert transport.submits == [("a", 0), ("b", 0), ("a", 1)]
        assert counter("batch.retries") == before + 1

    def test_exhausted_retries_quarantine(self, live_counters, no_backoff):
        transport = ScriptedTransport({"a": 99})
        before = counter("batch.quarantined")
        outcomes, broke = Scheduler(
            transport, limits=Limits(retries=1),
        ).run(["a"])
        assert not broke
        (outcome,) = outcomes
        assert outcome.degraded
        assert outcome.attempts == 2
        assert outcome.error is not None
        assert counter("batch.quarantined") == before + 1

    def test_no_limits_means_single_attempt(self):
        transport = ScriptedTransport({"a": 99})
        outcomes, _ = Scheduler(transport).run(["a"])
        assert outcomes[0].attempts == 1
        assert outcomes[0].degraded
        assert transport.submits == [("a", 0)]

    def test_result_exception_is_a_report_error_not_breakage(self):
        transport = RaisingResultTransport()
        outcomes, broke = Scheduler(transport).run(["a"])
        assert not broke
        assert "RuntimeError: worker process died" in outcomes[0].error
        assert outcomes[0].degraded
        # a graceful close: result() exceptions are not machinery failure
        assert transport.closed_with is False

    def test_broken_transport_falls_back_in_process(self, baseline):
        name = BYSTANDERS[0]
        outcomes, broke = Scheduler(
            BrokenSubmitTransport(), limits=LIMITS, spec=TriageSpec(),
        ).run([name])
        assert broke
        assert projection(outcomes[0]) == baseline[name]

    def test_outcomes_keep_input_order(self, no_backoff):
        transport = ScriptedTransport({"b": 1})
        outcomes, _ = Scheduler(
            transport, limits=Limits(retries=1),
        ).run(["a", "b", "c"])
        assert [o.name for o in outcomes] == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# local backends: pool and serial are the same core
# ---------------------------------------------------------------------------

class TestLocalParity:
    def test_pool_matches_serial_and_keeps_local_envelope(self, baseline):
        result = triage_many(SUBSET, jobs=2, limits=LIMITS)
        assert result.mode == "parallel"
        assert {projection(o) for o in result.outcomes} == \
            set(baseline.values())
        env = result.to_dict()
        # fleet-only fields must stay absent on local runs: the
        # pre-scheduler envelope is byte-reproducible
        for key in ("backend", "workers", "steals"):
            assert key not in env
        for outcome in result.outcomes:
            assert "worker" not in outcome.to_dict()


# ---------------------------------------------------------------------------
# the remote backend: an in-process two-worker fleet
# ---------------------------------------------------------------------------

def _start_fleet(cache_dir: str, count: int = 2,
                 threads: int = 2) -> list[TriageServer]:
    servers = []
    for _ in range(count):
        server = TriageServer(port=0, cache_dir=cache_dir, workers=threads)
        server.start()
        servers.append(server)
    return servers


def _shutdown_fleet(servers) -> None:
    for server in servers:
        server.shutdown()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    shared = str(tmp_path_factory.mktemp("fleet-store"))
    servers = _start_fleet(shared)
    yield [s.url for s in servers], shared
    _shutdown_fleet(servers)


class TestRemoteFleet:
    def test_remote_matches_pool_and_stamps_workers(self, fleet, baseline):
        urls, shared = fleet
        result = triage_many(SUBSET, workers=urls, cache_dir=shared,
                             limits=LIMITS)
        assert result.mode == "remote"
        assert not result.degraded
        assert {projection(o) for o in result.outcomes} == \
            set(baseline.values())
        for outcome in result.outcomes:
            assert outcome.worker in urls
        # the workers touch the store: the batch block sums their counts
        counts = ("hits", "misses", "puts")
        assert {k: result.cache[k] for k in counts} == \
            {k: sum(o.cache[k] for o in result.outcomes) for k in counts}
        env = result.to_dict()
        assert env["backend"] == "remote"
        assert set(env["workers"]) == set(urls)
        assert env["steals"] >= 0

    def test_warm_rerun_is_served_without_new_msa_work(self, fleet):
        urls, shared = fleet
        cold = triage_many(SUBSET, workers=urls, cache_dir=shared,
                           limits=LIMITS)
        before = counter("msa.candidates")
        warm = triage_many(SUBSET, workers=urls, cache_dir=shared,
                           limits=LIMITS)
        assert counter("msa.candidates") == before
        assert {projection(o) for o in warm.outcomes} == \
            {projection(o) for o in cold.outcomes}

    def test_worker_fault_is_retried_and_quarantined(
            self, tmp_path, baseline, no_backoff):
        # A fresh fleet and cache root: the fault must actually run, not
        # be served from a prior clean run's store entry.  One server
        # with one worker thread, because report-scoped fault state is
        # process-global — concurrent in-process serve threads would
        # race on it (real fleets are separate processes).
        servers = _start_fleet(str(tmp_path / "fault-store"),
                               count=1, threads=1)
        urls = [s.url for s in servers]
        try:
            install(f"raise@smt@{TARGET}")
            result = triage_many(
                SUBSET, workers=urls,
                cache_dir=str(tmp_path / "fault-store"),
                limits=Limits(deadline=DEADLINE, retries=1))
            install(None)
        finally:
            _shutdown_fleet(servers)
        by_name = {o.name: o for o in result.outcomes}
        assert TARGET in {o.name for o in result.degraded}
        assert by_name[TARGET].degraded
        assert by_name[TARGET].attempts == 2  # retried once, then gave up
        assert by_name[TARGET].error is not None
        for name in BYSTANDERS:
            assert projection(by_name[name]) == baseline[name]

    def test_dead_worker_reroutes_to_survivor(self, tmp_path, baseline):
        # grab a port that is guaranteed closed
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        servers = _start_fleet(str(tmp_path / "lone-store"), count=1)
        try:
            result = triage_many(
                SUBSET, workers=[dead_url, servers[0].url],
                cache_dir=str(tmp_path / "lone-store"), limits=LIMITS)
        finally:
            _shutdown_fleet(servers)
        assert result.mode == "remote"
        assert not result.degraded
        assert {projection(o) for o in result.outcomes} == \
            set(baseline.values())
        for outcome in result.outcomes:
            assert outcome.worker == servers[0].url
