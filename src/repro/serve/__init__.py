"""Triage-as-a-service: the ``repro serve`` daemon.

Triage as a service answers the paper's interactive question — "is
this error report a real bug or a missing precondition?" — for many
clients at once.  This package wires the Pipeline facade, the
``repro.result/2`` envelope, Limits admission control, the
content-addressed CacheStore and the Prometheus exporter behind a
long-running stdlib-only HTTP/JSON daemon:

* :mod:`repro.serve.jobs` — the job registry: coalescing (identical
  in-flight submissions share one computation), bounded retention,
  ``max_inflight`` admission;
* :mod:`repro.serve.service` — the transport-independent core: a work
  queue feeding the existing batch driver, per-request Limits clamped
  to the server-wide budget, the persistent store for cache-hit
  inline answers and cross-source ``(I, phi)`` sharing;
* :mod:`repro.serve.http` — the ThreadingHTTPServer adapter with the
  ``/v1/triage`` / ``/v1/jobs`` / ``/healthz`` / ``/metrics``
  endpoint surface.

Start it from the CLI (``python -m repro serve --port 8184
--cache-dir .repro-cache``) or embed it::

    from repro.serve import TriageServer

    server = TriageServer(port=0, cache_dir=".repro-cache")
    server.start()
    ...  # POST to f"{server.url}/v1/triage"
    server.shutdown()
"""

from .http import TriageServer, run
from .jobs import AdmissionError, Job, JobRegistry
from .service import BadRequest, TriageService

__all__ = [
    "AdmissionError",
    "BadRequest",
    "Job",
    "JobRegistry",
    "TriageServer",
    "TriageService",
    "run",
]
