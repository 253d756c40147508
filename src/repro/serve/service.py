"""The triage service: submissions, workers, status — no HTTP in sight.

:class:`TriageService` is the transport-independent core of ``repro
serve``.  It owns a :class:`~repro.serve.jobs.JobRegistry`, a work
queue, and a small pool of worker threads feeding the existing batch
driver; the HTTP layer (:mod:`repro.serve.http`) is a thin adapter
over its methods (``submit`` / ``job_status`` / ``explain`` /
``patches`` / ``health`` / ``statusz`` / ``debug_trace`` /
``metrics_text``), which makes the whole service unit-testable without
sockets.

Every submission is one *trace*: ``submit`` adopts the transport's
:class:`~repro.obs.context.TraceContext` (or mints one), the run
executes bound to it (spans, provenance, logs, and the batch driver's
forked workers all inherit it), the result envelope carries it as
``trace_id``, and the completed run lands in a bounded
:class:`FlightRecorder` queryable by that id (``GET
/debug/traces/<trace_id>``, SIGUSR1 JSONL dump).  :class:`RouteStats`
keeps the sliding-window per-route latency/error SLOs behind
``/v1/statusz`` and /metrics.  The trace, the governor and the
telemetry scope are all bound per context, and the store travels as an
argument of the report runner, so jobs on concurrent worker threads
never share them, and a job's events and provenance nodes are the ones
its own :func:`repro.obs.capture` scope recorded.

Two submission kinds share one pipeline:

* ``{"benchmark": NAME}`` — or a raw ``{"source": ...}`` whose text is
  byte-identical to a Figure 7 program — runs the exact batch-driver
  path (`triage_with_retries`): ground-truth oracle, retry/quarantine
  policy, persistent store, incremental short-circuit.  Verdicts are
  therefore identical to ``Pipeline.triage``'s.
* ``{"source": ...}`` for unknown programs runs the report runner —
  the front end, then the Figure 6 loop under a :class:`SamplingOracle`
  (the paper's auto-answering future-work mode) — and returns the
  ``analysis`` or ``diagnosis`` envelope.

Either kind may add ``"repair": true`` to run :meth:`Pipeline.repair`
instead: triage followed by abductive patch synthesis
(:mod:`repro.repair`), returning the ``repair`` envelope whose ranked
patch list is also served at ``GET /v1/jobs/<id>/patches``.  Repair
jobs coalesce separately from plain triage (the mode is folded into
the job key) and their exit code follows the repair contract: a false
alarm with no surviving patch is a failure, not a success.

``"explain": true`` records the run's derivation for
``GET /v1/jobs/<id>/explain``.  It is folded into the job key too, and
an explain job always runs its stages: it is never answered inline from
a finished job or from a recorded verdict, which carry no derivation.

Coalescing is two-level, both keyed by dg1 content digests: identical
submissions in flight join one job (`serve.coalesced`), and distinct
sources whose ``(I, phi)`` judgment digests match share work through
the content-addressed store exactly as incremental re-triage does —
the second submission's job resolves to the recorded verdict without
recomputing (see :mod:`repro.batch`).

Admission control derives per-request :class:`~repro.limits.Limits`
from the server-wide defaults: a request may *tighten* the governing
deadline, step budget and retries but never exceed the server's, and
distinct jobs beyond ``max_inflight`` are refused with a Retry-After
hint.
"""

from __future__ import annotations

import json
import math
import os
import queue
import threading
import time
from collections import OrderedDict, deque
from contextlib import nullcontext
from typing import Any

from .. import obs
from ..batch.driver import triage_with_retries
from ..batch.outcomes import recorded_verdict
from ..cache import open_store
from ..diagnosis import EngineConfig
from ..diagnosis.stages import STAGE_VERSION, config_fingerprint
from ..limits import Limits
from ..lang import parse_program
from ..logic.digest import digest_many, digest_text
from ..obs import context as ocontext
from ..obs import logging as olog
from ..obs import provenance as prov
from ..obs.core import percentiles
from ..schema import EXIT_DEGRADED, SCHEMA_VERSION, exit_code
from ..suite import BENCHMARKS, DIAGNOSTICS, benchmark_by_name, load_source

__all__ = ["BadRequest", "FlightRecorder", "RouteStats", "TriageService"]

#: Submission body size cap (the largest Figure 7 source is ~3 KiB).
MAX_SOURCE_BYTES = 1 << 20

#: Schema of a flight-recorder JSONL dump (SIGUSR1 / ``dump_traces``).
FLIGHT_SCHEMA = "repro.flight/1"

#: How many completed traces the flight recorder retains.
FLIGHT_CAPACITY = 256

#: Sliding window for the per-route SLO rollups, in seconds.
SLO_WINDOW_S = 300.0

#: Samples kept per route within the SLO window.
SLO_MAX_SAMPLES = 4_096


class RouteStats:
    """Per-route sliding-window SLOs: latency quantiles + error rate.

    One bounded deque of ``(ts, dur_s, status)`` per route; reads evict
    entries older than the window, so /metrics and /v1/statusz report
    the *live* service, not its lifetime average.  Small and lock-
    guarded: the handler threads record, the scraper thread reads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._routes: dict[str, deque] = {}

    def observe(self, route: str, status: int, dur_s: float) -> None:
        with self._lock:
            samples = self._routes.get(route)
            if samples is None:
                samples = self._routes[route] = deque(
                    maxlen=SLO_MAX_SAMPLES)
            samples.append((time.monotonic(), dur_s, status))

    def summary(self) -> dict[str, dict]:
        """``{route: {count, error_rate, p50_s, p95_s, p99_s, ...}}``
        over the window (empty routes are omitted)."""
        cutoff = time.monotonic() - SLO_WINDOW_S
        out: dict[str, dict] = {}
        with self._lock:
            for route, samples in self._routes.items():
                while samples and samples[0][0] < cutoff:
                    samples.popleft()
                if not samples:
                    continue
                durs = [s[1] for s in samples]
                errors = sum(1 for s in samples if s[2] >= 500)
                out[route] = {
                    "count": len(samples),
                    "error_rate": errors / len(samples),
                    **{f"{key}_s": value
                       for key, value in percentiles(durs).items()},
                    "max_s": max(durs),
                    "window_s": SLO_WINDOW_S,
                }
        return out


class FlightRecorder:
    """A bounded ring of the most recently completed traces.

    Keyed by trace id; coalesced joiners' ids alias to the shared
    entry, so every requester's trace id resolves.  ``dump`` writes the
    ring as a ``repro.flight/1`` JSONL stream (header line first) —
    the SIGUSR1 post-mortem artifact.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._aliases: dict[str, str] = {}

    def record(self, entry: dict, aliases: tuple = ()) -> None:
        trace_id = entry.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            self._entries[trace_id] = entry
            self._entries.move_to_end(trace_id)
            for alias in aliases:
                if alias and alias != trace_id:
                    self._aliases[alias] = trace_id
            while len(self._entries) > FLIGHT_CAPACITY:
                evicted, _ = self._entries.popitem(last=False)
                self._aliases = {a: t for a, t in self._aliases.items()
                                 if t != evicted}

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            resolved = self._aliases.get(trace_id, trace_id)
            entry = self._entries.get(resolved)
            return dict(entry) if entry is not None else None

    def recent(self, n: int | None = None) -> list[dict]:
        """Newest first; ``n`` caps the list."""
        with self._lock:
            entries = [dict(e) for e in reversed(self._entries.values())]
        return entries if n is None else entries[:n]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def dump(self, destination: str | os.PathLike) -> int:
        """Write the ring (oldest first) as ``repro.flight/1`` JSONL;
        returns the number of trace entries written."""
        with self._lock:
            entries = [dict(e) for e in self._entries.values()]
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"type": "header", "schema": FLIGHT_SCHEMA}) + "\n")
            for entry in entries:
                handle.write(json.dumps(
                    {"type": "flight", **entry}, default=str) + "\n")
        return len(entries)


class BadRequest(ValueError):
    """A submission the service refuses to queue (HTTP 400)."""


def _clamped_limits(base: Limits | None, requested: dict | None) -> Limits | None:
    """Per-request limits: the request may tighten the server's bounds
    but never relax them (a client cannot buy more budget than the
    operator granted)."""
    if requested is None:
        return base
    if not isinstance(requested, dict):
        raise BadRequest("'limits' must be an object")
    unknown = sorted(set(requested) - set(Limits.__dataclass_fields__))
    if unknown:
        # Limits.from_dict drops unknown keys, but a typo'd bound in an
        # admission request must not silently grant unlimited budget
        raise BadRequest(
            f"bad limits: unknown bound(s) {', '.join(unknown)}")
    for name, value in requested.items():
        if value is None and name != "retries":
            continue  # an unset bound, as in Limits()
        seconds = name == "deadline"
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if seconds else int) \
                or not 0 <= value < math.inf:
            raise BadRequest(
                f"bad limits: {name} must be a non-negative "
                + ("number" if seconds else "integer"))
    asked = Limits.from_dict(requested)
    if base is None:
        return asked
    merged = {}
    for name in ("deadline", "max_steps"):
        ours, theirs = getattr(base, name), getattr(asked, name)
        if ours is None:
            merged[name] = theirs
        elif theirs is None:
            merged[name] = ours
        else:
            merged[name] = min(ours, theirs)
    merged["retries"] = min(base.retries, asked.retries)
    return Limits(**merged)


class TriageService:
    """The daemon's application core (transport-independent).

    ``cache_dir`` opens the store every job shares; each job's report
    runner passes it explicitly to the front end, the engine and repair
    synthesis, so the worker threads bind no store.  A verdict one job
    memoized still reaches the store when another job checks it."""

    def __init__(self, *, cache_dir: str | None = None,
                 config: EngineConfig | None = None,
                 limits: Limits | None = None,
                 max_inflight: int = 8,
                 workers: int = 1):
        from .jobs import JobRegistry

        self.cache_dir = cache_dir
        self.config = config or EngineConfig()
        self.limits = limits
        self.registry = JobRegistry(max_inflight=max_inflight)
        self.slo = RouteStats()
        self.flights = FlightRecorder()
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._workers = max(1, workers)
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = time.time()
        self._fingerprint = config_fingerprint(self.config)
        # byte-identical Figure 7 sources resolve to their benchmark,
        # so HTTP submissions take the exact Pipeline.triage path
        self._known_sources = {
            digest_text(load_source(b)): b.name
            for b in BENCHMARKS + DIAGNOSTICS
        }
        obs.enable()  # /metrics serves the live snapshot

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        for n in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{n}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 3.0) -> None:
        """Stop the workers; queued jobs settle as degraded."""
        self._stop.set()
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = []
        # jobs still queued will never run — fail them loudly rather
        # than leaving clients polling forever
        while True:
            try:
                job_id = self._queue.get_nowait()
            except queue.Empty:
                break
            if job_id is not None:
                self.registry.finish(
                    job_id, result=None, exit_code=EXIT_DEGRADED,
                    error="server shut down before the job ran",
                )

    # ------------------------------------------------------------------
    # submissions
    # ------------------------------------------------------------------
    def submit(self, payload: Any, *,
               trace: ocontext.TraceContext | None = None
               ) -> tuple[int, dict]:
        """Queue (or coalesce, or answer inline) one triage request.

        Returns ``(http_status, body)``: 200 with the finished envelope
        on an inline cache hit, 202 with a job handle otherwise.
        :class:`BadRequest` and :class:`AdmissionError` escape for the
        transport to map (400 / 429).

        ``trace`` is the request's ingress context (minted fresh when
        absent — e.g. a ``traceparent`` header the transport parsed).
        The returned body always carries this request's ``trace_id``;
        coalesced joins additionally alias their id onto the shared
        job's flight-recorder entry.
        """
        ctx = trace if trace is not None else ocontext.new_trace("serve")
        request = self._validate(payload)
        key = self._job_key(request)
        job, coalesced, inline = self.registry.submit(
            key,
            name=request["name"],
            kind=request["kind"],
            request=request,
            reusable=self._reusable,
            trace=ctx.to_dict(),
        )
        if inline:
            body = dict(job.to_dict())
            body["served"] = "cache"
            body["trace_id"] = ctx.trace_id
            # the request completed without running: give its trace an
            # entry of its own, pointing at the recorded job
            self.flights.record({
                "trace_id": ctx.trace_id,
                "job_id": job.id,
                "name": job.name,
                "served": "cache",
                "verdict": (job.result or {}).get("verdict"),
                "exit_code": job.exit_code,
                "finished": time.time(),
            })
            olog.info("serve.inline", job=job.id, name=job.name,
                      trace=ctx.trace_id)
            return 200, body
        if not coalesced:
            if request["kind"] == "benchmark" \
                    and not request.get("repair") \
                    and not request.get("explain") \
                    and self._recorded(request["name"]):
                # the store already holds this judgment's verdict: the
                # run short-circuits in milliseconds, so answer inline
                self._run_job(job.id)
                body = dict(self.registry.get(job.id).to_dict())
                body["served"] = "store"
                body["trace_id"] = ctx.trace_id
                return 200, body
            self._queue.put(job.id)
        body = {
            "job_id": job.id,
            "status": job.status,
            "name": job.name,
            "coalesced": coalesced,
            "location": f"/v1/jobs/{job.id}",
            "trace_id": ctx.trace_id,
        }
        olog.info("serve.submit", job=job.id, name=job.name,
                  coalesced=coalesced, trace=ctx.trace_id)
        return 202, body

    def _recorded(self, name: str) -> bool:
        """True when the persistent store can resolve this benchmark's
        source digest through the ``analyze`` artifact to a recorded
        ``triage`` verdict (the incremental re-triage chain)."""
        if self.cache_dir is None:
            return False
        return recorded_verdict(open_store(self.cache_dir),
                                benchmark_by_name(name),
                                self.config) is not None

    @staticmethod
    def _reusable(job) -> bool:
        """Only clean verdicts may be served inline from a retained
        job — degraded/errored envelopes depend on the run — and never
        to an ``explain`` submission, whose derivation is its own run's."""
        return (job.result is not None
                and job.exit_code is not None
                and job.exit_code != EXIT_DEGRADED
                and not job.request.get("explain"))

    def _validate(self, payload: Any) -> dict:
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        source = payload.get("source")
        benchmark = payload.get("benchmark")
        if (source is None) == (benchmark is None):
            raise BadRequest(
                "provide exactly one of 'source' or 'benchmark'")
        repair = payload.get("repair", False)
        if not isinstance(repair, bool):
            raise BadRequest("'repair' must be a boolean")
        attempt = payload.get("attempt", 0)
        if not isinstance(attempt, int) or isinstance(attempt, bool) \
                or attempt < 0:
            raise BadRequest("'attempt' must be a non-negative integer")
        request: dict = {
            "limits": payload.get("limits"),
            "explain": bool(payload.get("explain", False)),
            "repair": repair,
            "attempt": attempt,
        }
        _clamped_limits(self.limits, request["limits"])  # validate early
        if benchmark is not None:
            if not isinstance(benchmark, str):
                raise BadRequest("'benchmark' must be a string")
            try:
                bench = benchmark_by_name(benchmark)
            except KeyError:
                raise BadRequest(
                    f"unknown benchmark {benchmark!r}") from None
            request.update(kind="benchmark", name=bench.name)
            return request
        if not isinstance(source, str):
            raise BadRequest("'source' must be a string")
        if len(source.encode()) > MAX_SOURCE_BYTES:
            raise BadRequest("source exceeds the 1 MiB submission cap")
        known = self._known_sources.get(digest_text(source))
        if known is not None:
            request.update(kind="benchmark", name=known)
            return request
        try:
            program = parse_program(source)
        except Exception as exc:  # parse errors are the client's fault
            raise BadRequest(f"source does not parse: {exc}") from None
        request.update(kind="source", name=program.name, source=source)
        return request

    def _job_key(self, request: dict) -> str:
        """The coalescing digest: everything the verdict is a pure
        function of.  Benchmarks key on their (fixed) source through
        the analysis judgment — same key as the incremental triage
        artifact chain — so identical submissions coalesce in flight
        and same-judgment sources share through the store.

        An ``explain`` submission keys apart from a plain one: it must
        record the derivation that a plain job never records.  A
        coordinator retrying a report (``attempt > 0``, see
        :mod:`repro.sched.remote`) gets a fresh key: the retry must
        never coalesce onto the original, possibly wedged, job."""
        mode = "repair" if request.get("repair") else "triage"
        extra: tuple[str, ...] = ()
        if request.get("explain"):
            extra += ("explain",)
        if request.get("attempt"):
            extra += (f"attempt={request['attempt']}",)
        if request["kind"] == "benchmark":
            return digest_many("serve.bench", STAGE_VERSION, mode,
                               request["name"], self._fingerprint,
                               *extra)
        return digest_many("serve.adhoc", STAGE_VERSION, mode,
                           self._fingerprint,
                           digest_text(request["source"]), *extra)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def job_status(self, job_id: str, *, since: int = 0
                   ) -> tuple[int, dict]:
        """Status + progress events; 404 for unknown ids.

        For a finished job the HTTP status follows the shared contract
        (:func:`repro.schema.http_status`): verdict-bearing results are
        200, degraded results 503.  Running jobs stream the obs events
        their own scope has recorded so far (``since`` resumes an
        earlier poll by event id).
        """
        from ..schema import http_status

        job = self.registry.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        body = job.to_dict()
        # a copy first: a running job's scope is still growing
        body["events"] = [dict(e) for e in tuple(job.events)
                          if e.get("id", 0) >= since]
        if job.status != "done":
            return 200, body
        status = 200 if job.exit_code is None \
            else http_status(job.exit_code)
        return status, body

    def explain(self, job_id: str) -> tuple[int, dict]:
        """The derivation tree behind a finished job's verdict."""
        job = self.registry.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        if job.status != "done":
            return 409, {"error": f"job {job_id} is {job.status}; "
                                  "explain needs a finished job"}
        if not job.provenance:
            return 404, {
                "error": "no provenance recorded; submit with "
                         '{"explain": true}'}
        tree = prov.render_tree(list(job.events), list(job.provenance),
                                report=job.name)
        return 200, {
            "job_id": job.id,
            "name": job.name,
            "nodes": [dict(n) for n in job.provenance],
            "tree": tree,
        }

    def patches(self, job_id: str) -> tuple[int, dict]:
        """The ranked patch list of a finished ``repair: true`` job."""
        job = self.registry.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        if job.status != "done":
            return 409, {"error": f"job {job_id} is {job.status}; "
                                  "patches need a finished job"}
        result = job.result or {}
        if result.get("kind") != "repair":
            return 404, {
                "error": "no patches recorded; submit with "
                         '{"repair": true}'}
        return 200, {
            "job_id": job.id,
            "name": job.name,
            "verdict": result.get("verdict"),
            "already_clean": result.get("already_clean", False),
            "verified_patches": result.get("verified_patches", 0),
            "patches": list(result.get("repairs", [])),
        }

    def health(self) -> tuple[int, dict]:
        return 200, {
            "status": "ok",
            "schema": SCHEMA_VERSION,
            "uptime_seconds": round(time.time() - self._started, 3),
            **self.registry.stats(),
        }

    def statusz(self) -> tuple[int, dict]:
        """The live-SLO rollup: per-route latency/error windows, queue
        depth, coalesce rate, flight-recorder occupancy."""
        counters = obs.snapshot().get("counters", {})
        submitted = counters.get("serve.submitted", 0)
        coalesced = counters.get("serve.coalesced", 0)
        attach_total = submitted + coalesced
        return 200, {
            "status": "ok",
            "schema": SCHEMA_VERSION,
            "uptime_seconds": round(time.time() - self._started, 3),
            "queue_depth": self._queue.qsize(),
            "routes": self.slo.summary(),
            "coalesce_rate": (coalesced / attach_total
                              if attach_total else 0.0),
            "inline_hits": counters.get("serve.inline_hits", 0),
            "rejected": counters.get("serve.rejected", 0),
            "flight_recorder": {
                "capacity": FLIGHT_CAPACITY,
                "recorded": len(self.flights),
            },
            "log": {
                "enabled": olog.is_enabled(),
                "slow_query_ms": olog.slow_query_ms(),
            },
            **self.registry.stats(),
        }

    def debug_trace(self, trace_id: str) -> tuple[int, dict]:
        """The flight-recorder entry for one completed trace, joined
        with that trace's structured log lines still in the ring."""
        entry = self.flights.get(trace_id)
        if entry is None:
            return 404, {"error": f"no recorded trace {trace_id!r} "
                                  "(completed traces only, bounded ring)"}
        entry["logs"] = olog.records(trace=entry.get("trace_id"))
        return 200, entry

    def dump_traces(self, destination: str | os.PathLike) -> int:
        """SIGUSR1 target: write the flight recorder as JSONL."""
        count = self.flights.dump(destination)
        olog.info("serve.flight_dump", path=str(destination),
                  traces=count)
        return count

    def observe_request(self, method: str, route: str, status: int,
                        dur_s: float, trace_id: str | None = None
                        ) -> None:
        """One finished HTTP request: SLO sample + access log line."""
        self.slo.observe(route, status, dur_s)
        obs.observe("serve.request_seconds", dur_s)
        fields: dict[str, Any] = {
            "method": method, "route": route, "status": status,
            "dur_ms": round(1000.0 * dur_s, 3),
        }
        if trace_id is not None:
            fields["trace"] = trace_id
        olog.info("serve.access", **fields)

    def metrics_text(self) -> str:
        obs.gauge("serve.inflight", float(self.registry.inflight()))
        obs.gauge("serve.queue_depth", float(self._queue.qsize()))
        lines = [obs.export_prometheus().rstrip("\n")]
        routes = self.slo.summary()
        if routes:
            lines.append("# HELP repro_route_latency_seconds Sliding-"
                         "window per-route latency quantiles.")
            lines.append("# TYPE repro_route_latency_seconds summary")
            for route in sorted(routes):
                s = routes[route]
                for q, key in (("0.5", "p50_s"), ("0.95", "p95_s"),
                               ("0.99", "p99_s")):
                    lines.append(
                        f'repro_route_latency_seconds{{route="{route}",'
                        f'quantile="{q}"}} {s[key]}')
                lines.append(
                    f'repro_route_latency_seconds_count{{route='
                    f'"{route}"}} {s["count"]}')
            lines.append("# HELP repro_route_error_ratio Error-rate "
                         "(5xx fraction) per route over the window.")
            lines.append("# TYPE repro_route_error_ratio gauge")
            for route in sorted(routes):
                lines.append(
                    f'repro_route_error_ratio{{route="{route}"}} '
                    f'{routes[route]["error_rate"]}')
        recent = self.flights.recent(32)
        if recent:
            lines.append("# HELP repro_trace_info Recently completed "
                         "traces (flight recorder; newest first).")
            lines.append("# TYPE repro_trace_info gauge")
            for entry in recent:
                trace_id = entry.get("trace_id", "")
                name = entry.get("name", "")
                lines.append(
                    f'repro_trace_info{{trace_id="{trace_id}",'
                    f'name="{name}"}} 1')
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job_id = self._queue.get()
            if job_id is None:
                return
            try:
                self._run_job(job_id)
            except Exception as exc:  # noqa: BLE001 - workers must survive
                self.registry.finish(
                    job_id, result=None, exit_code=EXIT_DEGRADED,
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _run_job(self, job_id: str) -> None:
        job = self.registry.get(job_id)
        if job is None:
            return
        # the whole run executes under the submitting request's trace:
        # spans, provenance nodes, log lines and the batch driver's
        # worker processes all inherit (or are handed) this context
        ctx = ocontext.TraceContext.from_dict(job.trace)
        request = job.request
        limits = _clamped_limits(self.limits, request.get("limits"))
        code = None
        started = time.time()
        with ocontext.bind(ctx):
            olog.info("serve.job_start", job=job_id, name=job.name,
                      kind=job.kind)
            # the job's own scope holds its events and, for an explain
            # job, the provenance nodes that it alone records
            with prov.recording() if request.get("explain") \
                    else nullcontext(), obs.capture() as scope:
                self.registry.mark_running(job_id, scope)
                if request.get("repair") or request["kind"] == "source":
                    envelope, code = self._run_report(request, limits)
                else:
                    # an explain job runs its stages (replays record
                    # the same nodes); a recorded verdict has none
                    envelope = triage_with_retries(
                        request["name"], self.config, limits,
                        cache_dir=self.cache_dir,
                        incremental=self.cache_dir is not None
                        and not request.get("explain"),
                    ).to_dict()
            if code is None:
                degraded = bool(envelope.get("degraded")) \
                    or envelope.get("error") is not None
                code = exit_code([envelope["verdict"]], degraded=degraded)
            if ctx is not None and "trace_id" not in envelope:
                envelope["trace_id"] = ctx.trace_id
            # the scope has folded into the aggregate: /metrics already
            # counts the job when it shows as done
            self.registry.finish(job_id, result=envelope, exit_code=code)
            finished = time.time()
            olog.info("serve.job_done", job=job_id, name=job.name,
                      verdict=envelope.get("verdict"), exit_code=code,
                      dur_ms=round(1000.0 * (finished - started), 3))
        if ctx is not None:
            self.flights.record({
                "trace_id": ctx.trace_id,
                "job_id": job_id,
                "name": job.name,
                "kind": job.kind,
                "verdict": envelope.get("verdict"),
                "exit_code": code,
                "started": started,
                "finished": finished,
                "duration_s": round(finished - started, 6),
                "events": len(scope.events),
                "provenance_nodes": len(scope.nodes),
                "joined_traces": list(job.joined_traces),
            }, aliases=job.joined_traces)

    def _run_report(self, request: dict, limits: Limits | None
                    ) -> tuple[dict, int | None]:
        """An ad-hoc source (under the sampling oracle) or a ``repair:
        true`` submission: one report-runner call.  A repair's exit code
        follows the repair contract rather than the bare-verdict
        mapping: a false alarm with no surviving patch is not repaired."""
        from ..api import Pipeline, report_envelope

        pipeline = Pipeline(config=self.config, limits=limits,
                            cache_dir=self.cache_dir)
        if not request.get("repair"):
            result = pipeline.diagnose(request["source"])
            return report_envelope(result), None
        result = pipeline.repair(request["name"]
                                 if request["kind"] == "benchmark"
                                 else request["source"])
        obs.inc("serve.repair.jobs")
        obs.inc("serve.repair.patches", len(result.patches))
        obs.inc("serve.repair.verified", result.verified_count)
        if result.exit_status == EXIT_DEGRADED:
            obs.inc("serve.repair.degraded")
        return result.to_dict(), result.exit_status
