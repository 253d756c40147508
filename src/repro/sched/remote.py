"""The remote-worker transport: ``repro serve`` instances as a fleet.

``RemoteTransport`` drives one or more running ``repro serve``
daemons through their existing HTTP surface — ``POST /v1/triage``
submissions and ``GET /v1/jobs/<id>`` polling — so a coordinator
machine can fan a batch out across machines with the *same*
retry/quarantine scheduler that drives the local process pool.

Sharding and stealing.  Each report has a stable shard key derived
from content digests, preferring the judgment digests when a shared
:class:`~repro.cache.store.CacheStore` already resolves them (the
fleet is partitioned by *what the verdict depends on*, not by name),
falling back to the source digest.  The key picks a home worker; when
the home is saturated or unhealthy the task is *stolen* by the
least-loaded healthy worker (``sched.steals``) so one straggler cannot
serialize the batch.

Fault model, mapped onto the scheduler's contract:

* a worker answering 429 (admission control) is merely busy — the
  submit returns "no capacity" and the task stays queued;
* a connection failure marks that worker dead; the attempt comes back
  as an error outcome, so the scheduler's normal retry resubmits it —
  and the shard steal routes it to a surviving worker;
* every worker dead is transport breakage (:class:`TransportBroken`):
  the scheduler finishes the batch in-process;
* a worker that accepted a job and then went silent is caught by the
  scheduler's grace window exactly like a killed pool worker.

Each submission ships the coordinator's per-attempt tightened limits
with ``retries: 0`` — the retry policy lives in the coordinator's
scheduler, never nested inside a worker — and a ``traceparent`` header
carrying the report's trace hop, so worker-side spans, logs and
telemetry join the coordinator's trace.  The new ``attempt`` request
field keeps a retry from coalescing onto the original, possibly
wedged, job on the same worker.

Workers run their triage with telemetry on (serve always does); the
coordinator strips the snapshot when its own obs instrumentation is
off, keeping envelopes identical to the local backends'.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from .. import obs
from ..cache import open_store
from ..logic.digest import digest_many, digest_text
from ..obs import context as ocontext
from ..batch.outcomes import TriageOutcome, recorded_judgment
from ..suite import benchmark_by_name, load_source
from .transports import TransportBroken, TriageSpec, TriageTask

#: Socket timeout for every fleet HTTP call, seconds.
HTTP_TIMEOUT = 10.0

#: Minimum interval between status polls of one remote job, seconds.
POLL_INTERVAL = 0.05

#: Submissions each worker keeps in flight at once.
SLOTS = 2


def outcome_from_envelope(env: dict, *, worker: str | None = None,
                          telemetry: bool = True) -> TriageOutcome:
    """Rebuild a :class:`TriageOutcome` from its ``triage_outcome``
    envelope, as returned by a ``repro serve`` worker.

    The worker's own retry bookkeeping is discarded (``attempts`` reset
    to 1, ``degraded`` to False): the coordinator's scheduler is the
    only retry authority, and it re-finalizes every outcome itself.
    """
    return TriageOutcome(
        name=env["name"],
        classification=env["verdict"],
        expected=env.get("expected"),
        num_queries=env.get("num_queries", 0),
        rounds=env.get("rounds", 0),
        elapsed_seconds=env.get("elapsed_seconds", 0.0),
        timed_out=env.get("timed_out", False),
        error=env.get("error"),
        telemetry=env.get("telemetry") if telemetry else None,
        provenance=tuple(env.get("provenance") or ()),
        exhausted_stage=env.get("exhausted_stage"),
        exhausted_kind=env.get("exhausted_kind"),
        resource_spend=env.get("resource_spend"),
        cache=env.get("cache"),
        trace_id=env.get("trace_id"),
        worker=worker,
    )


def _limits_payload(task: TriageTask) -> dict | None:
    """The per-attempt limits shipped to the worker: the coordinator's
    tightened bounds with the retry policy zeroed (retries nest in the
    coordinator only)."""
    if task.limits is None:
        return None
    payload = task.limits.to_dict()
    payload["retries"] = 0
    return payload


@dataclass
class RemoteWorker:
    """One ``repro serve`` endpoint and its live bookkeeping."""

    url: str

    inflight: int = 0
    alive: bool = True
    unavailable_until: float = 0.0  # 429 backoff, monotonic deadline

    def __post_init__(self) -> None:
        self.url = self.url.rstrip("/")

    # ------------------------------------------------------------------
    def post_json(self, path: str, payload: dict,
                  headers: dict | None = None) -> tuple[int, dict]:
        request = urllib.request.Request(
            self.url + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json",
                     **(headers or {})},
            method="POST",
        )
        return self._round_trip(request)

    def get_json(self, path: str) -> tuple[int, dict]:
        return self._round_trip(urllib.request.Request(self.url + path))

    @staticmethod
    def _round_trip(request) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(
                    request, timeout=HTTP_TIMEOUT) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            # error statuses still carry a JSON body (e.g. a finished
            # degraded job answers 503 with the full job payload)
            try:
                body = json.loads(exc.read())
            except (ValueError, OSError):
                body = {"error": f"HTTP {exc.code}"}
            return exc.code, body

    # ------------------------------------------------------------------
    def available(self, now: float) -> bool:
        return self.alive and now >= self.unavailable_until \
            and self.inflight < SLOTS

    def health(self) -> bool:
        """Probe ``/healthz``; updates and returns :attr:`alive`."""
        try:
            status, _body = self.get_json("/healthz")
            self.alive = status == 200
        except (urllib.error.URLError, OSError, ValueError):
            self.alive = False
        return self.alive


@dataclass
class _RemoteHandle:
    """One submitted attempt: either already resolved (inline answer or
    synthesized failure) or a job the transport keeps polling."""

    worker: RemoteWorker
    name: str
    outcome: TriageOutcome | None = None
    failure: Exception | None = None
    job_id: str | None = None
    next_poll_at: float = 0.0
    counted: bool = False          # holds one of the worker's slots


@dataclass
class RemoteTransport:
    """Drive ``repro serve`` workers through the scheduler protocol."""

    urls: list[str]
    spec: TriageSpec = field(default_factory=TriageSpec)

    broken_exceptions: tuple = ()
    idle_delay: float = 0.02

    def __post_init__(self) -> None:
        if not self.urls:
            raise ValueError("RemoteTransport needs at least one worker URL")
        self.workers = [RemoteWorker(url) for url in self.urls]
        self.steals = 0
        self._store = (open_store(self.spec.cache_dir)
                       if self.spec.cache_dir is not None else None)
        self._shards: dict[str, str] = {}

    # ------------------------------------------------------------------
    # scheduler protocol
    # ------------------------------------------------------------------
    @property
    def parallelism(self) -> int:
        healthy = sum(1 for w in self.workers if w.alive)
        return max(1, healthy * SLOTS)

    def open(self) -> None:
        for worker in self.workers:
            worker.health()
        if not any(w.alive for w in self.workers):
            raise TransportBroken(
                "no healthy worker among " + ", ".join(self.urls))

    def submit(self, task: TriageTask) -> _RemoteHandle | None:
        worker = self._pick_worker(task.name)
        if worker is None:
            if not any(w.alive for w in self.workers):
                raise TransportBroken("every remote worker is dead")
            return None  # all healthy workers saturated — stay queued
        headers = {}
        if task.trace is not None:
            headers["traceparent"] = ocontext.TraceContext.from_dict(
                task.trace).to_traceparent()
        payload: dict = {"benchmark": task.name}
        limits = _limits_payload(task)
        if limits is not None:
            payload["limits"] = limits
        if task.attempt > 0:
            # a distinct job key per retry: the resubmission must not
            # coalesce onto the original, possibly wedged, job
            payload["attempt"] = task.attempt
        try:
            status, body = worker.post_json("/v1/triage", payload,
                                            headers=headers)
        except (urllib.error.URLError, OSError) as exc:
            worker.alive = False
            return _RemoteHandle(worker, task.name, failure=exc)
        if status == 200:
            return _RemoteHandle(
                worker, task.name,
                outcome=outcome_from_envelope(
                    body["result"], worker=worker.url,
                    telemetry=self.spec.telemetry))
        if status == 202:
            worker.inflight += 1
            return _RemoteHandle(
                worker, task.name, job_id=body["job_id"],
                next_poll_at=time.monotonic() + POLL_INTERVAL,
                counted=True)
        if status == 429:
            worker.unavailable_until = time.monotonic() + float(
                body.get("retry_after", 1.0))
            return None
        return _RemoteHandle(
            worker, task.name,
            failure=RuntimeError(
                f"worker {worker.url} refused {task.name}: "
                f"HTTP {status}: {body.get('error', body)}"))

    def done(self, handle: _RemoteHandle) -> bool:
        if handle.outcome is not None or handle.failure is not None:
            return True
        now = time.monotonic()
        if now < handle.next_poll_at:
            return False
        handle.next_poll_at = now + POLL_INTERVAL
        try:
            status, body = handle.worker.get_json(
                f"/v1/jobs/{handle.job_id}")
        except (urllib.error.URLError, OSError) as exc:
            handle.worker.alive = False
            handle.failure = exc
            self._release(handle)
            return True
        # finished jobs answer 200 (clean) or 503 (degraded), both with
        # the full job body; anything else is a protocol failure
        if status in (200, 503) and body.get("status") == "done":
            self._release(handle)
            result = body.get("result")
            if result is None:
                handle.failure = RuntimeError(
                    f"worker {handle.worker.url} lost job "
                    f"{handle.job_id}: {body.get('error', 'no result')}")
            else:
                handle.outcome = outcome_from_envelope(
                    result, worker=handle.worker.url,
                    telemetry=self.spec.telemetry)
            return True
        if status != 200:
            handle.failure = RuntimeError(
                f"worker {handle.worker.url} job {handle.job_id}: "
                f"HTTP {status}: {body.get('error', body)}")
            self._release(handle)
            return True
        return False

    def result(self, handle: _RemoteHandle) -> TriageOutcome:
        if handle.failure is not None:
            raise handle.failure
        return handle.outcome

    def cancel(self, handle: _RemoteHandle) -> None:
        # the protocol has no job cancellation; free the slot so the
        # retry can be scheduled, and let the worker's own governor
        # reap the abandoned run
        self._release(handle)

    def rebuild(self) -> None:
        """Re-probe the whole fleet and reset slot accounting (the
        scheduler requeues everything that was in flight)."""
        for worker in self.workers:
            worker.inflight = 0
            worker.unavailable_until = 0.0
            worker.health()
        if not any(w.alive for w in self.workers):
            raise TransportBroken("every remote worker is dead")

    def close(self, *, force: bool = False) -> None:
        pass  # the workers are daemons we do not own

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------
    @staticmethod
    def _release(handle: _RemoteHandle) -> None:
        if handle.counted:
            handle.counted = False
            handle.worker.inflight = max(0, handle.worker.inflight - 1)

    def _shard_key(self, name: str) -> str:
        """A stable content shard key: judgment digests when the shared
        store already resolves them, else the source digest, else the
        name (diagnostic programs outside the suite)."""
        key = self._shards.get(name)
        if key is not None:
            return key
        try:
            bench = benchmark_by_name(name)
            source_digest = digest_text(load_source(bench))
        except Exception:  # noqa: BLE001 - sharding must never fail
            key = digest_many("sched.shard", name)
            self._shards[name] = key
            return key
        key = digest_many("sched.shard", source_digest)
        if self._store is not None:
            judgment = recorded_judgment(self._store, bench)
            if judgment is not None:
                key = digest_many("sched.shard", judgment["invariants"],
                                  judgment["success"])
        self._shards[name] = key
        return key

    def _pick_worker(self, name: str) -> RemoteWorker | None:
        """The report's home shard when it can take work, else steal to
        the least-loaded available worker."""
        now = time.monotonic()
        home = self.workers[
            int(self._shard_key(name)[:8], 16) % len(self.workers)]
        if home.available(now):
            return home
        candidates = [w for w in self.workers
                      if w is not home and w.available(now)]
        if not candidates:
            return None
        thief = min(candidates, key=lambda w: w.inflight)
        self.steals += 1
        obs.inc("sched.steals")
        return thief
