"""Tests for the ``repro serve`` daemon: HTTP surface, coalescing,
admission control, the status contract, and the acceptance E2E (cold
round over HTTP == ``Pipeline.triage``; warm round runs nothing).
"""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.api import Pipeline
from repro.schema import (
    EXIT_DEGRADED,
    SCHEMA_VERSION,
    dump_json,
    read_envelope,
)
from repro.serve import AdmissionError, BadRequest, TriageService, TriageServer
from repro.suite import BENCHMARKS, benchmark_by_name, load_source

SAFE = "program safe(x) { var y = x + 1; assert(y > x); }"
DOOMED = "program doomed(x) { var y = x; assert(y > x); }"
# request limits of the wrong type or range, or naming a bound Limits
# does not have (each must be a 400)
BAD_LIMITS = ({"deadline": "abc"}, {"deadline": True}, {"deadline": -1},
              {"max_steps": 2.5}, {"retries": None},
              {"qe_steps": 5}, {"max_nodes": 10}, {"backoff": 0.1})


def _request(url: str, payload: dict | None = None):
    """POST ``payload`` (or GET when None); returns (status, body)."""
    if payload is None:
        req = urllib.request.Request(url)
    else:
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _await_job(base: str, job_id: str, timeout: float = 120.0):
    """Poll a job until it finishes; returns its final (status, body)."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = _request(f"{base}/v1/jobs/{job_id}")
        if body.get("status") == "done":
            return status, body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = TriageServer(
        port=0,
        cache_dir=str(tmp_path_factory.mktemp("serve-store")),
        max_inflight=32,
        workers=2,
    )
    srv.start()
    yield srv
    srv.shutdown()


# ---------------------------------------------------------------------------
# the acceptance E2E: cold round == Pipeline.triage, warm round is free
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_cold_round_matches_pipeline_then_warm_round_is_free(
            self, server):
        base = server.url
        names = [b.name for b in BENCHMARKS]

        # --- cold: submit all 11 Figure 7 reports over HTTP ------------
        handles = {}
        for name in names:
            status, body = _request(f"{base}/v1/triage",
                                    {"benchmark": name})
            assert status in (200, 202), body
            handles[name] = body
        served = {}
        for name, body in handles.items():
            if "job_id" in body and body.get("status") != "done":
                _, body = _await_job(base, body["job_id"])
            served[name] = body
        for name, body in served.items():
            envelope = body["result"]
            assert envelope["schema"] == SCHEMA_VERSION
            assert envelope["kind"] == "triage_outcome"
            # every envelope survives the validator/upgrader round trip
            assert read_envelope(envelope)["verdict"] == \
                envelope["verdict"]

        # --- verdicts are byte-identical to Pipeline.triage ------------
        batch = Pipeline().triage(names, jobs=2)
        expected = {o.name: o.to_dict() for o in batch.outcomes}
        for name in names:
            ours, ref = served[name]["result"], expected[name]
            assert ours["verdict"].encode() == ref["verdict"].encode()
            assert ours.get("correct") == ref.get("correct")
            assert ours.get("expected") == ref.get("expected")

        # --- warm: the identical round runs nothing ---------------------
        before = obs.snapshot()["counters"]
        for name in names:
            status, body = _request(f"{base}/v1/triage",
                                    {"benchmark": name})
            assert status == 200, body
            assert body["served"] in ("cache", "store")
            assert body["result"]["verdict"] == \
                served[name]["result"]["verdict"]
        after = obs.snapshot()["counters"]
        assert after.get("msa.candidates", 0) == \
            before.get("msa.candidates", 0)
        for counter, value in after.items():
            if counter.startswith("cache.") and counter.endswith(".miss"):
                assert value == before.get(counter, 0), counter

        # --- the daemon stays live ---------------------------------------
        status, health = _request(f"{base}/healthz")
        assert status == 200 and health["status"] == "ok"
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
            assert r.headers["Content-Type"].startswith("text/plain")
            text = r.read().decode()
        assert "repro_serve_submitted_total" in text
        assert "repro_serve_inline_hits_total" in text


class TestHttpSurface:
    def test_adhoc_source_analysis(self, server):
        status, body = _request(f"{server.url}/v1/triage",
                                {"source": SAFE})
        if status == 202:
            status, body = _await_job(server.url, body["job_id"])
        assert status == 200
        assert body["result"]["verdict"] == "false alarm"

    def test_adhoc_real_bug_maps_exit_code(self, server):
        status, body = _request(f"{server.url}/v1/triage",
                                {"source": DOOMED})
        if status == 202:
            status, body = _await_job(server.url, body["job_id"])
        assert status == 200          # a verdict is an HTTP success
        assert body["exit_code"] == 1  # ...carrying the contract code
        assert body["result"]["verdict"] == "real bug"

    def test_bad_submissions_are_400(self, server):
        base = f"{server.url}/v1/triage"
        assert _request(base, {})[0] == 400
        assert _request(base, {"benchmark": "nope"})[0] == 400
        assert _request(base, {"source": "not a program ("})[0] == 400
        assert _request(base, {"source": SAFE,
                               "benchmark": "p10_toggle"})[0] == 400
        status, body = _request(base, {"source": SAFE,
                                       "limits": {"bogus_knob": 1}})
        assert status == 400 and "limits" in body["error"]
        for bad in BAD_LIMITS:
            status, body = _request(base, {"source": SAFE, "limits": bad})
            assert status == 400 and "limits" in body["error"], bad

    def test_unknown_job_is_404(self, server):
        assert _request(f"{server.url}/v1/jobs/j999999")[0] == 404

    def test_unknown_route_is_404(self, server):
        assert _request(f"{server.url}/nope")[0] == 404

    def test_explain_round_trip(self, server):
        status, body = _request(
            f"{server.url}/v1/triage",
            {"benchmark": "d02_negate", "explain": True})
        assert status in (200, 202)
        job_id = body["job_id"]
        _await_job(server.url, job_id)
        status, body = _request(f"{server.url}/v1/jobs/{job_id}/explain")
        assert status == 200
        assert body["nodes"], "explain must record provenance nodes"
        assert "verdict" in body["tree"]


# ---------------------------------------------------------------------------
# coalescing + concurrent envelope access (no sockets: service level)
# ---------------------------------------------------------------------------

class TestCoalescing:
    def test_n_threads_one_job_byte_identical_envelopes(self, tmp_path):
        """The satellite contract: N identical submissions in flight
        yield one computation (coalescing counter == N-1) and, once
        done, every thread reads a byte-identical envelope through the
        /1->/2 upgrader and ``dump_json``."""
        service = TriageService(cache_dir=str(tmp_path / "store"),
                                max_inflight=4, workers=1)
        obs.reset()
        n = 8
        barrier = threading.Barrier(n)

        def submit(_):
            barrier.wait()
            return service.submit({"benchmark": "d01_plus_one"})

        # workers are not started yet, so all N submissions observe the
        # job in flight: the first creates it, the rest join it
        with ThreadPoolExecutor(max_workers=n) as pool:
            results = list(pool.map(submit, range(n)))
        statuses = sorted(status for status, _ in results)
        assert statuses == [202] * n
        job_ids = {body["job_id"] for _, body in results}
        assert len(job_ids) == 1
        counters = obs.snapshot()["counters"]
        assert counters.get("serve.coalesced", 0) == n - 1
        assert counters.get("serve.submitted", 0) == 1

        # now run it and read the envelope from N threads at once
        service.start()
        job_id = job_ids.pop()
        import time
        deadline = time.monotonic() + 60
        while service.registry.get(job_id).status != "done":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        service.stop()

        def read(_):
            status, body = service.job_status(job_id)
            upgraded = read_envelope(body["result"])
            return status, dump_json(upgraded).encode()

        with ThreadPoolExecutor(max_workers=n) as pool:
            payloads = list(pool.map(read, range(n)))
        assert len({blob for _, blob in payloads}) == 1
        assert all(status == 200 for status, _ in payloads)

    def test_concurrent_v1_upgrade_is_pure(self):
        """``read_envelope`` under the daemon's thread pool: same /1
        payload from N threads -> byte-identical /2 envelopes, input
        never mutated."""
        legacy = {"schema": "repro.result/1", "kind": "triage_outcome",
                  "verdict": "real bug", "name": "d02_negate"}
        frozen = json.dumps(legacy, sort_keys=True)

        def upgrade(_):
            return dump_json(read_envelope(legacy)).encode()

        with ThreadPoolExecutor(max_workers=16) as pool:
            blobs = set(pool.map(upgrade, range(64)))
        assert len(blobs) == 1
        upgraded = json.loads(blobs.pop())
        assert upgraded["schema"] == SCHEMA_VERSION
        assert upgraded["degraded"] is False
        assert json.dumps(legacy, sort_keys=True) == frozen


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_max_inflight_rejects_with_retry_after(self, tmp_path):
        service = TriageService(cache_dir=str(tmp_path / "store"),
                                max_inflight=1)
        # no workers started: the first job stays queued
        status, _ = service.submit({"benchmark": "d01_plus_one"})
        assert status == 202
        with pytest.raises(AdmissionError) as err:
            service.submit({"benchmark": "d02_negate"})
        assert err.value.inflight == 1
        assert err.value.limit == 1
        assert err.value.retry_after > 0
        # identical submissions still coalesce at the cap
        status, body = service.submit({"benchmark": "d01_plus_one"})
        assert status == 202 and body["coalesced"] is True

    def test_request_limits_clamp_to_server_budget(self, tmp_path):
        from repro.limits import Limits
        from repro.serve.service import _clamped_limits

        base = Limits(deadline=10.0, max_steps=1000, retries=2)
        merged = _clamped_limits(base, {"deadline": 99.0, "max_steps": 10,
                                        "retries": 5})
        assert merged.deadline == 10.0      # cannot exceed the server's
        assert merged.max_steps == 10       # may tighten
        assert merged.retries == 2
        assert _clamped_limits(base, None) is base
        with pytest.raises(BadRequest):
            _clamped_limits(base, {"no_such_field": 1})
        for bad in BAD_LIMITS + ({"deadline": float("nan")},):
            with pytest.raises(BadRequest):
                _clamped_limits(base, bad)

    def test_shutdown_settles_queued_jobs_degraded(self, tmp_path):
        service = TriageService(cache_dir=str(tmp_path / "store"),
                                max_inflight=4)
        status, body = service.submit({"benchmark": "p01_accumulate"})
        assert status == 202
        service.stop(timeout=0.5)  # workers never started
        job = service.registry.get(body["job_id"])
        assert job.status == "done"
        assert job.exit_code == EXIT_DEGRADED
        assert "shut down" in job.error
        # ...and the degraded retained job is never served inline
        status, body2 = service.submit({"benchmark": "p01_accumulate"})
        assert status == 202
        assert body2["job_id"] != body["job_id"]


# ---------------------------------------------------------------------------
# observability: one trace id end-to-end, live SLOs, /metrics under load
# ---------------------------------------------------------------------------

class TestTraceObservability:
    def test_one_trace_id_links_envelope_logs_flights_metrics(
            self, server):
        """The acceptance E2E: a submission made under a caller-chosen
        traceparent finishes with that trace_id on the result envelope,
        its provenance nodes, its structured log lines, the flight-
        recorder entry, and the /metrics trace-info labels."""
        from repro.obs import logging as olog

        trace_hex = "deadbeefcafe4321"
        header = f"00-{trace_hex.rjust(32, '0')}-00f067aa0ba902b7-01"
        olog.configure(level="info")
        try:
            req = urllib.request.Request(
                f"{server.url}/v1/triage",
                data=json.dumps({"benchmark": "d01_plus_one",
                                 "explain": True}).encode(),
                headers={"Content-Type": "application/json",
                         "traceparent": header},
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                status, body = resp.status, json.loads(resp.read())
            assert status in (200, 202)
            assert body["trace_id"] == trace_hex
            job_id = body["job_id"]
            status, body = _await_job(server.url, job_id)
            # 1. the result envelope carries the trace id
            assert body["trace_id"] == trace_hex
            assert body["result"]["trace_id"] == trace_hex
            # 2. so do the provenance nodes behind the verdict
            status, explain = _request(
                f"{server.url}/v1/jobs/{job_id}/explain")
            assert status == 200
            assert explain["nodes"]
            assert all(n.get("trace") == trace_hex
                       for n in explain["nodes"])
            # 3. and the structured log lines still in the ring
            events = {r["event"]
                      for r in olog.records(trace=trace_hex)}
            assert {"serve.job_start", "serve.job_done"} <= events
            # 4. and the flight-recorder entry (with its logs joined)
            status, flight = _request(
                f"{server.url}/debug/traces/{trace_hex}")
            assert status == 200
            assert flight["trace_id"] == trace_hex
            assert flight["job_id"] == job_id
            assert flight["verdict"] == body["result"]["verdict"]
            assert any(r["event"] == "serve.job_done"
                       for r in flight["logs"])
            # 5. and the Prometheus trace-info labels
            status, _ = 200, None
            with urllib.request.urlopen(
                    f"{server.url}/metrics", timeout=30) as resp:
                text = resp.read().decode()
            assert f'repro_trace_info{{trace_id="{trace_hex}"' in text
        finally:
            olog.reset()

    def test_unknown_trace_is_404(self, server):
        assert _request(f"{server.url}/debug/traces/ffff0000")[0] == 404

    def test_statusz_reports_live_slos(self, server):
        # generate at least one request sample on a normalized route
        _request(f"{server.url}/healthz")
        status, body = _request(f"{server.url}/v1/statusz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue_depth"] >= 0
        assert 0.0 <= body["coalesce_rate"] <= 1.0
        assert body["flight_recorder"]["capacity"] > 0
        routes = body["routes"]
        assert "/healthz" in routes
        sample = routes["/healthz"]
        assert sample["count"] >= 1
        assert 0.0 <= sample["error_rate"] <= 1.0
        assert sample["p50_s"] <= sample["p95_s"] <= sample["p99_s"]
        # job-status routes are normalized, never literal ids
        assert all("/v1/jobs/j" not in route for route in routes)

    def test_metrics_counters_are_prometheus_compliant(self, server):
        with urllib.request.urlopen(f"{server.url}/metrics",
                                    timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        lines = text.splitlines()
        counters = [line.split()[2] for line in lines
                    if line.startswith("# TYPE ")
                    and line.endswith(" counter")]
        assert counters, "no counters exported"
        for metric in counters:
            assert metric.endswith("_total")
            assert any(line.startswith(f"# HELP {metric} ")
                       for line in lines)

    def test_concurrent_scrapes_while_jobs_run(self, server):
        """Hammer /metrics from threads while jobs execute: every
        scrape parses, and counters are monotone across an ordered
        re-scrape (no torn reads of live state)."""
        def scrape():
            with urllib.request.urlopen(f"{server.url}/metrics",
                                        timeout=30) as resp:
                return resp.read().decode()

        def counters_of(text):
            out = {}
            for line in text.splitlines():
                if line.startswith("#") or "{" in line or not line:
                    continue
                name, _, value = line.partition(" ")
                if name.endswith("_total"):
                    out[name] = float(value)
            return out

        submissions = [{"source": SAFE + f"// scrape {i}"}
                       for i in range(4)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            jobs = [pool.submit(_request, f"{server.url}/v1/triage", s)
                    for s in submissions]
            scrapes = [pool.submit(scrape) for _ in range(16)]
            texts = [f.result() for f in scrapes]
            for f in jobs:
                status, body = f.result()
                if status == 202:
                    _await_job(server.url, body["job_id"])
        for text in texts:
            assert counters_of(text), "scrape yielded no counters"
        before = counters_of(scrape())
        after = counters_of(scrape())
        for name, value in before.items():
            assert after.get(name, 0.0) >= value, (
                f"counter {name} went backwards")


# ---------------------------------------------------------------------------
# per-job state under concurrent worker threads
# ---------------------------------------------------------------------------

#: Memo tiers shared by the whole process: which job misses first
#: depends on scheduling, so only their lookup totals are comparable.
_PROCESS_MEMOS = {"qe.elim": ("hit", "miss"),
                  "qe.clause_sat": ("hit", "miss", "model_hit"),
                  "smt.is_sat": ("hit", "miss")}

#: Counters of the work beneath the ``is_sat`` memo (with the
#: ``smt.check`` span count): a report that meets a warmer memo than its
#: cold run computes a subset of that run's checks.
_BENEATH_MEMO = ("smt.fresh_checks", "sat.solves", "sat.conflicts")


def _per_report(snap: dict) -> tuple[tuple[dict, dict], dict]:
    """A report's memo-independent counters and span counts, and apart
    from them the work beneath the ``is_sat`` memo."""
    counters = dict(snap["counters"])
    for tier, kinds in _PROCESS_MEMOS.items():
        counters[f"{tier}.lookups"] = sum(
            counters.pop(f"{tier}.{kind}", 0) for kind in kinds)
    spans = {name: s["count"] for name, s in snap["spans"].items()}
    beneath = {name: counters.pop(name, 0) for name in _BENEATH_MEMO}
    beneath["smt.check"] = spans.pop("smt.check", 0)
    return (counters, spans), beneath


def _run_to_completion(service: TriageService, handles: list[dict],
                       timeout: float = 300.0) -> list:
    import time

    deadline = time.monotonic() + timeout
    jobs = []
    for handle in handles:
        while service.registry.get(handle["job_id"]).status != "done":
            assert time.monotonic() < deadline, handle
            time.sleep(0.02)
        jobs.append(service.registry.get(handle["job_id"]))
    return jobs


class TestConcurrentJobs:
    def test_figure7_telemetry_equals_serial_runs(self):
        """All 11 Figure-7 reports through two worker threads, from
        cleared memos: each job's telemetry equals a serial run of the
        same report from cleared memos, counter for counter and span
        count for span count, except that the work beneath the shared
        ``is_sat`` memo is at most the serial run's; and every event a
        job carries belongs to its own trace."""
        from repro.batch.outcomes import _triage_one
        from repro.qe.cooper import clear_qe_caches

        clear_qe_caches()
        names = [b.name for b in BENCHMARKS]
        service = TriageService(max_inflight=len(names), workers=2)
        handles = [service.submit({"benchmark": name})[1]
                   for name in names]
        service.start()
        try:
            jobs = _run_to_completion(service, handles)
        finally:
            service.stop()
        for name, job in zip(names, jobs):
            ours = job.result["telemetry"]
            clear_qe_caches()
            serial = _triage_one(name, telemetry=True).telemetry
            exact, beneath = _per_report(ours)
            cold_exact, cold_beneath = _per_report(serial)
            assert exact == cold_exact, name
            assert all(beneath[k] <= cold_beneath[k] for k in beneath), \
                (name, beneath, cold_beneath)
            assert ours["spans"]["triage.report"]["count"] == 1
            assert job.events, name
            assert all(e.get("trace") == job.trace_id
                       for e in job.events), name

    def test_adhoc_and_repair_jobs_cover_their_whole_report(self):
        """Ad-hoc and repair jobs run through the report runner: their
        telemetry holds one ``triage.report`` span, front end included,
        and every event a job carries belongs to its own trace."""
        chroot = load_source(benchmark_by_name("p06_chroot"))
        service = TriageService(max_inflight=4, workers=2)
        handles = [
            service.submit({"source": SAFE + "// one span"})[1],
            service.submit({"source": chroot + "\n// ad hoc\n",
                            "limits": {"deadline": 60.0}})[1],
            service.submit({"benchmark": "p06_chroot", "repair": True})[1],
        ]
        service.start()
        try:
            jobs = _run_to_completion(service, handles)
        finally:
            service.stop()
        assert [job.result["kind"] for job in jobs] == \
            ["analysis", "diagnosis", "repair"]
        for job in jobs:
            spans = job.result["telemetry"]["spans"]
            assert spans["triage.report"]["count"] == 1, job.result
            assert job.events, job.name
            assert all(e.get("trace") == job.trace_id
                       for e in job.events), job.name

    def test_deadline_jobs_never_leak_their_governor(self):
        """Two concurrent ad-hoc sources run under a 1.0 s deadline; a
        source with no limits submitted 1.1 s later gets a real
        verdict, not the expired governor's ``unknown resource``."""
        import time

        def adhoc(name: str, tag: str) -> str:
            # the trailing comment keeps the daemon from resolving the
            # text to its benchmark
            return load_source(benchmark_by_name(name)) + f"\n// {tag}\n"

        service = TriageService(max_inflight=4, workers=2)
        service.start()
        try:
            governed = [service.submit({"source": adhoc(name, "governed"),
                                        "limits": {"deadline": 1.0}})[1]
                        for name in ("p03_square", "p05_strlcpy")]
            time.sleep(1.1)
            late = service.submit({"source": adhoc("p10_toggle", "late")})
            jobs = _run_to_completion(service, governed + [late[1]])
        finally:
            service.stop()
        assert jobs[-1].result["verdict"] != "unknown resource", \
            jobs[-1].result

    def test_concurrent_explain_jobs_keep_their_own_derivations(
            self, monkeypatch):
        """p10 and p02 run as concurrent ``explain`` jobs, gated so
        that p02 starts while p10 records, asks its oracle, and resumes
        only once p10's job has finished: each job's query, abduce and
        verdict nodes equal its solo run's."""
        from repro.diagnosis import ExhaustiveOracle
        from repro.limits import faults

        names = ("p10_toggle", "p02_wordcount")

        def derivation(job) -> list:
            return [{k: v for k, v in n.items()
                     if k not in ("id", "span", "at", "trace")}
                    for n in job.provenance
                    if n["kind"] in ("query", "abduce", "verdict")]

        solo = {}
        for name in names:
            service = TriageService()
            _, handle = service.submit({"benchmark": name,
                                        "explain": True})
            service._run_job(handle["job_id"])
            solo[name] = derivation(service.registry.get(handle["job_id"]))
            assert {n["kind"] for n in solo[name]} == \
                {"query", "abduce", "verdict"}, name

        asking = {name: threading.Event() for name in names}
        p10_done = threading.Event()
        answer = ExhaustiveOracle.answer
        run_job = TriageService._run_job

        def gated_answer(oracle, query):
            name = faults.current_report()
            if not asking[name].is_set():
                asking[name].set()
                other = asking["p02_wordcount"] if name == "p10_toggle" \
                    else p10_done
                assert other.wait(60), name
            return answer(oracle, query)

        def gated_run_job(service, job_id):
            name = service.registry.get(job_id).name
            if name == "p02_wordcount":
                assert asking["p10_toggle"].wait(60)
            run_job(service, job_id)
            if name == "p10_toggle":
                p10_done.set()

        monkeypatch.setattr(ExhaustiveOracle, "answer", gated_answer)
        monkeypatch.setattr(TriageService, "_run_job", gated_run_job)
        service = TriageService(max_inflight=2, workers=2)
        handles = [service.submit({"benchmark": name, "explain": True})[1]
                   for name in names]
        service.start()
        try:
            jobs = _run_to_completion(service, handles)
        finally:
            service.stop()
        for name, job in zip(names, jobs):
            assert derivation(job) == solo[name], name
            status, body = service.explain(job.id)
            assert status == 200, body
            assert body["nodes"][-1]["kind"] == "verdict", name

    def test_jobs_sharing_a_trace_id_keep_disjoint_events(
            self, monkeypatch):
        """Two jobs on one trace (as a fleet coordinator submits them),
        gated so that p05 runs start to finish while p01 waits in its
        oracle: each job's events, read while it is still running and
        once it is done, hold exactly one ``triage.report`` span, its
        own, and no event of the other job."""
        from repro.diagnosis import ExhaustiveOracle
        from repro.limits import faults
        from repro.obs import context as ocontext
        from repro.serve.jobs import JobRegistry

        first, second = "p01_accumulate", "p05_strlcpy"
        first_asking, second_done = threading.Event(), threading.Event()
        finishing = {first: threading.Event(), second: threading.Event()}
        checked = {first: threading.Event(), second: threading.Event()}
        answer = ExhaustiveOracle.answer
        run_job = TriageService._run_job
        finish = JobRegistry.finish

        def gated_answer(oracle, query):
            if faults.current_report() == first \
                    and not first_asking.is_set():
                first_asking.set()
                assert second_done.wait(60)
            return answer(oracle, query)

        def gated_run_job(service, job_id):
            name = service.registry.get(job_id).name
            if name == second:
                assert first_asking.wait(60)
            run_job(service, job_id)
            if name == second:
                second_done.set()

        def gated_finish(registry, job_id, **kwargs):
            name = registry.get(job_id).name
            finishing[name].set()
            assert checked[name].wait(60)
            finish(registry, job_id, **kwargs)

        monkeypatch.setattr(ExhaustiveOracle, "answer", gated_answer)
        monkeypatch.setattr(TriageService, "_run_job", gated_run_job)
        monkeypatch.setattr(JobRegistry, "finish", gated_finish)
        root = ocontext.new_trace("fleet")
        service = TriageService(max_inflight=2, workers=2)
        handles = {name: service.submit({"benchmark": name},
                                        trace=root.child())[1]
                   for name in (first, second)}
        assert len({h["trace_id"] for h in handles.values()}) == 1
        running = {}
        service.start()
        try:
            for name in (second, first):
                assert finishing[name].wait(120), name
                status, body = service.job_status(handles[name]["job_id"])
                assert body["status"] == "running", body
                running[name] = body["events"]
                checked[name].set()
            jobs = dict(zip(handles, _run_to_completion(
                service, list(handles.values()))))
        finally:
            for event in checked.values():
                event.set()
            service.stop()
        done = {name: [dict(e) for e in job.events]
                for name, job in jobs.items()}
        for name in (first, second):
            for events in (running[name], done[name]):
                reports = [e["attrs"]["report"] for e in events
                           if e["name"] == "triage.report"]
                assert reports == [name], (name, reports)
        assert not {e["id"] for e in done[first]} \
            & {e["id"] for e in done[second]}


class TestExplainJobs:
    @pytest.mark.parametrize("stored", [False, True],
                             ids=["no-store", "recorded-verdict"])
    def test_explain_submission_runs_a_job_of_its_own(self, tmp_path,
                                                      stored):
        """A plain p10 job, then the same benchmark with ``explain:
        true``: the second is neither answered from the first job nor
        from the store's recorded verdict, and its ``/explain`` returns
        the derivation.  A repeated explain submission runs again."""
        service = TriageService(
            cache_dir=str(tmp_path / "store") if stored else None)
        _, plain = service.submit({"benchmark": "p10_toggle"})
        service._run_job(plain["job_id"])
        assert service._recorded("p10_toggle") is stored

        ids = [plain["job_id"]]
        for _ in range(2):
            status, body = service.submit({"benchmark": "p10_toggle",
                                           "explain": True})
            assert status == 202 and "served" not in body, body
            service._run_job(body["job_id"])
            ids.append(body["job_id"])
            status, tree = service.explain(body["job_id"])
            assert status == 200, tree
            kinds = {n["kind"] for n in tree["nodes"]}
            assert {"query", "abduce", "verdict"} <= kinds, kinds
            job = service.registry.get(body["job_id"])
            assert job.result["verdict"] == "real bug"
        assert len(set(ids)) == 3, ids
        assert service.explain(plain["job_id"])[0] == 404
