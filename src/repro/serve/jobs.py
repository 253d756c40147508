"""Job bookkeeping for the triage daemon: registry, queue, coalescing.

A *job* is one triage computation in flight (or retained after
completion).  The registry is the daemon's only mutable shared state,
so everything here is guarded by a single lock and exposes plain-data
snapshots only — HTTP handler threads and worker threads never share a
live object without going through it.

Coalescing.  Every submission carries a content key (a dg1 digest of
everything its verdict is a pure function of — see
:meth:`repro.serve.service.TriageService._job_key`).  Submitting a key
that is already queued or running does not create a second job: the
new client *joins* the existing one and both read the same envelope
when it completes (``serve.coalesced`` counts the joins).  Submitting
a key whose retained job finished with a clean, cacheable verdict is
answered inline from that envelope (``serve.inline_hits``).

Admission.  The registry enforces ``max_inflight``: distinct jobs
queued-or-running are capped, and :meth:`JobRegistry.submit` refuses
new *work* past the cap (:class:`AdmissionError` → HTTP 429).
Coalesced joins are admitted even at the cap — they add no work.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .. import obs

__all__ = ["AdmissionError", "Job", "JobRegistry"]

#: Job lifecycle states, in order.
QUEUED, RUNNING, DONE = "queued", "running", "done"


class AdmissionError(RuntimeError):
    """The daemon is at ``max_inflight`` distinct jobs.

    ``retry_after`` is the suggested client backoff in seconds, sized
    from the recent per-job wall time and the queue depth.
    """

    def __init__(self, inflight: int, limit: int, retry_after: float):
        self.inflight = inflight
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"{inflight} jobs in flight (limit {limit}); "
            f"retry in {retry_after:g}s"
        )


@dataclass
class Job:
    """One triage computation and its lifecycle."""

    id: str
    key: str                       # coalescing digest
    name: str                      # display name (benchmark or program)
    kind: str                      # 'benchmark' | 'source'
    request: dict                  # the validated submission payload
    status: str = QUEUED
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    waiters: int = 1               # clients attached (1 + coalesced)
    result: dict | None = None     # the repro.result/2 envelope
    exit_code: int | None = None   # the schema.py status contract
    events: Sequence = ()          # obs span events of the run's scope
    provenance: Sequence = ()      # its derivation nodes (explain)
    error: str | None = None       # submission-independent failure
    trace: dict | None = None      # TraceContext of the first submitter
    joined_traces: tuple = ()      # trace ids of coalesced joiners

    @property
    def trace_id(self) -> str | None:
        return self.trace.get("trace_id") if self.trace else None

    def to_dict(self) -> dict:
        """Plain-data job status (the ``GET /v1/jobs/<id>`` body,
        minus the live-event tail the service appends)."""
        payload: dict = {
            "job_id": self.id,
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "key": self.key,
            "waiters": self.waiters,
            "created": self.created,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.joined_traces:
            payload["joined_traces"] = list(self.joined_traces)
        if self.started is not None:
            payload["started"] = self.started
        if self.finished is not None:
            payload["finished"] = self.finished
        if self.exit_code is not None:
            payload["exit_code"] = self.exit_code
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        return payload


class JobRegistry:
    """Thread-safe job table with coalescing and bounded retention."""

    def __init__(self, *, max_inflight: int = 8, retain: int = 1024):
        self.max_inflight = max_inflight
        self.retain = retain
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: dict[str, str] = {}   # key -> job id
        self._ids = itertools.count(1)
        # rolling mean of completed-job wall seconds, for Retry-After
        self._done_count = 0
        self._done_seconds = 0.0

    # ------------------------------------------------------------------
    def submit(self, key: str, *, name: str, kind: str,
               request: dict,
               reusable: Callable[[Job], bool] | None = None,
               trace: dict | None = None
               ) -> tuple[Job, bool, bool]:
        """Register one submission under ``key``.

        Returns ``(job, coalesced, inline)``:

        * an in-flight job with the same key → that job, ``coalesced``
          True (the submission attaches as one more waiter);
        * a retained finished job with the same key that ``reusable``
          accepts → that job, ``inline`` True (serve its envelope
          directly);
        * otherwise a fresh queued job — unless the registry is at
          ``max_inflight``, which raises :class:`AdmissionError`.

        ``trace`` is the submitting request's
        :class:`~repro.obs.context.TraceContext` as plain data.  A
        fresh job owns it outright; a coalesced join records its trace
        id in ``joined_traces`` so the shared run stays findable under
        every requester's id.
        """
        with self._lock:
            trace_id = trace.get("trace_id") if trace else None
            active_id = self._inflight.get(key)
            if active_id is not None:
                job = self._jobs[active_id]
                job.waiters += 1
                if trace_id is not None and trace_id != job.trace_id:
                    job.joined_traces = job.joined_traces + (trace_id,)
                obs.inc("serve.coalesced")
                return job, True, False
            finished = self._latest_done(key)
            if finished is not None and (reusable is None
                                         or reusable(finished)):
                obs.inc("serve.inline_hits")
                return finished, False, True
            if len(self._inflight) >= self.max_inflight:
                obs.inc("serve.rejected")
                raise AdmissionError(
                    len(self._inflight), self.max_inflight,
                    self._retry_after_locked(),
                )
            job = Job(
                id=f"j{next(self._ids):06d}",
                key=key, name=name, kind=kind, request=request,
                trace=trace,
            )
            self._jobs[job.id] = job
            self._inflight[key] = job.id
            obs.inc("serve.submitted")
            return job, False, False

    def _latest_done(self, key: str) -> Job | None:
        for job in reversed(self._jobs.values()):
            if job.key == key and job.status == DONE:
                return job
        return None

    def _retry_after_locked(self) -> float:
        mean = (self._done_seconds / self._done_count
                if self._done_count else 1.0)
        return round(max(1.0, mean * max(1, len(self._inflight))), 1)

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def mark_running(self, job_id: str, scope: Any) -> None:
        """Start a job recording into ``scope``, its obs capture scope."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                job.status = RUNNING
                job.started = time.time()
                job.events, job.provenance = scope.events, scope.nodes

    def finish(self, job_id: str, *, result: dict | None,
               exit_code: int | None, error: str | None = None) -> None:
        """Settle a job: record its envelope, free its key, trim."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            job.status = DONE
            job.finished = time.time()
            job.result = result
            job.exit_code = exit_code
            job.error = error
            if job.started is not None:
                self._done_count += 1
                self._done_seconds += job.finished - job.started
            if self._inflight.get(job.key) == job.id:
                del self._inflight[job.key]
            obs.inc("serve.jobs_completed")
            self._trim_locked()

    def _trim_locked(self) -> None:
        """Drop the oldest finished jobs past the retention bound."""
        excess = len(self._jobs) - self.retain
        if excess <= 0:
            return
        for job_id in [jid for jid, j in self._jobs.items()
                       if j.status == DONE][:excess]:
            del self._jobs[job_id]

    # ------------------------------------------------------------------
    def inflight(self) -> int:
        """Distinct jobs queued or running."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> dict:
        with self._lock:
            by_status = {QUEUED: 0, RUNNING: 0, DONE: 0}
            for job in self._jobs.values():
                by_status[job.status] += 1
            return {
                "inflight": len(self._inflight),
                "max_inflight": self.max_inflight,
                "retained": len(self._jobs),
                **by_status,
            }
