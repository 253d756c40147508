"""The HTTP/JSON transport for the triage daemon — stdlib only.

A :class:`ThreadingHTTPServer` whose handler is a thin adapter over
:class:`~repro.serve.service.TriageService`: it parses the request,
calls one service method, and writes the JSON reply.  No framework, no
hard dependencies — matching the package's stdlib-only runtime.

Endpoint table (full request/response examples in ``docs/API.md``):

========================  ====================================================
``POST /v1/triage``       submit ``{"source": ...}`` or ``{"benchmark": ...}``
                          (+ optional ``limits``, ``explain``, ``repair``);
                          200 with the finished ``repro.result/3`` envelope
                          on a cache hit, 202 with a job handle otherwise,
                          400 for malformed submissions, 429 +
                          ``Retry-After`` past ``max_inflight``
``GET /v1/jobs/<id>``     status + progress events (``?since=N`` resumes);
                          finished jobs map through the shared status
                          contract (200 verdicts, 503 degraded)
``GET /v1/jobs/<id>/explain``  provenance derivation tree as JSON
``GET /v1/jobs/<id>/patches``  ranked verified patches of a ``repair: true``
                          job (409 while running, 404 when none recorded)
``GET /healthz``          liveness + queue stats
``GET /v1/statusz``       live SLOs: per-route latency windows, error
                          rate, queue depth, coalesce rate
``GET /metrics``          Prometheus text (obs exporter + route SLOs +
                          recent-trace info labels)
``GET /debug/traces/<trace_id>``  flight-recorder entry of a completed
                          trace, with its structured log lines
========================  ====================================================

Every request is timed and recorded against a normalized route label
(``/v1/jobs/:id``, not the literal id) in the service's
:class:`~repro.serve.service.RouteStats`, and emits one
``serve.access`` structured log line.  A W3C ``traceparent`` request
header on ``POST /v1/triage`` is adopted as the submission's trace
context; the response's ``trace_id`` echoes it.  SIGUSR1 dumps the
flight recorder to ``REPRO_TRACE_DUMP`` (default
``repro-traces.jsonl``) without stopping the daemon.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..obs import context as ocontext
from .jobs import AdmissionError
from .service import BadRequest, TriageService

__all__ = ["TriageServer", "run"]

#: Request body cap; submissions past it get 413 without being read.
MAX_BODY_BYTES = 4 << 20


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`TriageService`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # per-request accounting, (re)set by _timed before dispatch
    _status = 0
    _route = ""
    _trace_id: str | None = None

    # the service is attached to the server object by TriageServer
    @property
    def service(self) -> TriageService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._timed("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._timed("POST", self._route_post)

    def _timed(self, method: str, dispatch) -> None:
        """Dispatch one request, then record its SLO sample and emit
        the ``serve.access`` structured log line."""
        start = time.perf_counter()
        self._status = 0
        self._route = urlsplit(self.path).path
        self._trace_id = None
        try:
            dispatch()
        finally:
            self.service.observe_request(
                method, self._route, self._status,
                time.perf_counter() - start,
                trace_id=self._trace_id,
            )

    def _route_get(self) -> None:
        parts = urlsplit(self.path)
        segments = [s for s in parts.path.split("/") if s]
        if parts.path == "/healthz":
            self._reply(*self.service.health())
        elif parts.path == "/v1/statusz":
            self._reply(*self.service.statusz())
        elif parts.path == "/metrics":
            self._reply_text(200, self.service.metrics_text(),
                             content_type="text/plain; version=0.0.4")
        elif len(segments) == 3 and segments[:2] == ["debug", "traces"]:
            self._route = "/debug/traces/:id"
            self._trace_id = segments[2]
            self._reply(*self.service.debug_trace(segments[2]))
        elif len(segments) == 3 and segments[:2] == ["v1", "jobs"]:
            self._route = "/v1/jobs/:id"
            query = parse_qs(parts.query)
            try:
                since = int(query.get("since", ["0"])[0])
            except ValueError:
                self._reply(400, {"error": "'since' must be an integer"})
                return
            job = self.service.registry.get(segments[2])
            if job is not None:
                self._trace_id = job.trace_id
            self._reply(*self.service.job_status(segments[2],
                                                 since=since))
        elif len(segments) == 4 and segments[:2] == ["v1", "jobs"] \
                and segments[3] == "explain":
            self._route = "/v1/jobs/:id/explain"
            self._reply(*self.service.explain(segments[2]))
        elif len(segments) == 4 and segments[:2] == ["v1", "jobs"] \
                and segments[3] == "patches":
            self._route = "/v1/jobs/:id/patches"
            self._reply(*self.service.patches(segments[2]))
        else:
            self._reply(404, {"error": f"no route {parts.path!r}"})

    def _route_post(self) -> None:
        if urlsplit(self.path).path != "/v1/triage":
            self._reply(404, {"error": f"no route {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._reply(411, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": "request body too large"})
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "request body is not JSON"})
            return
        # an upstream proxy's traceparent header becomes this
        # submission's identity; otherwise the service mints one
        trace = ocontext.from_traceparent(
            self.headers.get("traceparent"))
        try:
            status, body = self.service.submit(payload, trace=trace)
        except BadRequest as exc:
            self._reply(400, {"error": str(exc)})
            return
        except AdmissionError as exc:
            self._reply(429, {
                "error": str(exc),
                "inflight": exc.inflight,
                "max_inflight": exc.limit,
                "retry_after": exc.retry_after,
            }, headers={"Retry-After": f"{exc.retry_after:g}"})
            return
        self._trace_id = body.get("trace_id")
        self._reply(status, body)

    # ------------------------------------------------------------------
    def _reply(self, status: int, body: dict,
               headers: dict[str, str] | None = None) -> None:
        self._reply_text(status,
                         json.dumps(body, default=str) + "\n",
                         content_type="application/json",
                         headers=headers)

    def _reply_text(self, status: int, text: str, *,
                    content_type: str,
                    headers: dict[str, str] | None = None) -> None:
        self._status = status
        data = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass
        obs.inc(f"serve.http.{status // 100}xx")

    def log_message(self, fmt: str, *args) -> None:
        """Route access logs through obs instead of stderr noise."""
        obs.inc("serve.http.requests")


class TriageServer:
    """The daemon: one :class:`TriageService` behind a threading HTTP
    server.  ``port=0`` binds an ephemeral port (read ``.port`` after
    construction — the CLI prints it so smoke harnesses can scrape
    it)."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8184,
                 **service_kwargs):
        self.service = TriageService(**service_kwargs)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._serve_thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start workers + acceptor thread; returns immediately."""
        self.service.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http",
            kwargs={"poll_interval": 0.1}, daemon=True,
        )
        self._serve_thread.start()

    def shutdown(self, timeout: float = 3.0) -> None:
        """Stop accepting, stop the workers, settle queued jobs.

        Bounded: the whole teardown completes within ``timeout`` plus
        the acceptor's poll interval, so a SIGTERM lands well inside
        the 5 s the CI smoke job allows."""
        self._httpd.shutdown()
        self.service.stop(timeout=timeout)
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(1.0)
            self._serve_thread = None

    def serve_forever(self) -> int:
        """Run until SIGTERM/SIGINT; the CLI entry point.

        SIGUSR1 (where available) dumps the flight recorder to
        ``REPRO_TRACE_DUMP`` (default ``repro-traces.jsonl``) without
        interrupting service — the live post-mortem hook.
        """
        stop = threading.Event()

        def _signalled(signum, frame):  # noqa: ARG001
            stop.set()

        def _dump_traces(signum, frame):  # noqa: ARG001
            path = os.environ.get("REPRO_TRACE_DUMP",
                                  "repro-traces.jsonl")
            try:
                count = self.service.dump_traces(path)
            except OSError as exc:
                print(f"repro serve: trace dump failed: {exc}",
                      file=sys.stderr, flush=True)
                return
            print(f"repro serve: dumped {count} trace(s) to {path}",
                  file=sys.stderr, flush=True)

        previous = {}
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _signalled)
        if hasattr(signal, "SIGUSR1"):
            previous[signal.SIGUSR1] = signal.signal(
                signal.SIGUSR1, _dump_traces)
        self.start()
        print(f"repro serve: listening on {self.url}",
              file=sys.stderr, flush=True)
        try:
            stop.wait()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.shutdown()
            print("repro serve: shut down cleanly",
                  file=sys.stderr, flush=True)
        return 0


def run(*, host: str = "127.0.0.1", port: int = 8184,
        **service_kwargs) -> int:
    """Construct a :class:`TriageServer` and block until signalled."""
    server = TriageServer(host=host, port=port, **service_kwargs)
    return server.serve_forever()
