"""Worker transports: how a scheduled triage attempt actually runs.

The scheduler (:mod:`repro.sched.core`) is transport-agnostic — it
speaks to workers only through the small ``WorkerTransport`` duck type
defined here, so "in this process", "in a local process pool" and "on a
remote ``repro serve`` instance" (:mod:`repro.sched.remote`) are three
backends of one retry/quarantine core.

A transport provides:

``parallelism``
    How many attempts may usefully be in flight at once (drives the
    pool-rebuild threshold: when that many workers are stuck *and*
    attempts are still in flight, the fleet is wedged).

``broken_exceptions``
    Exception types that, raised out of ``submit``/``done``, mean the
    transport machinery itself broke (not one worker): the scheduler
    abandons it and finishes the remaining reports in-process.  Worker
    exceptions surfaced by ``result`` are *not* breakage — they become
    per-report error outcomes and go through normal retry/quarantine.

``idle_delay``
    How long the scheduler sleeps when a poll pass made no progress.

``open() / close(force)``
    Lifecycle.  ``force`` is set when workers were ever stuck or the
    transport broke — a graceful close would hang on a wedged worker.

``submit(task) -> handle | None``
    Start one :class:`TriageTask`.  ``None`` means "no capacity right
    now, ask again" — the task stays queued.  The handle is opaque to
    the scheduler; only the transport interprets it.

``done(handle) / result(handle)``
    Poll for completion; fetch the :class:`TriageOutcome`.  ``result``
    may raise — the scheduler converts any exception into an error
    outcome for that report.

``cancel(handle)``
    Best effort; called when an attempt is declared stuck.

``rebuild()``
    Tear down and replace wedged workers.  In-flight attempts are
    requeued by the scheduler afterwards.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

from ..diagnosis import EngineConfig
from ..limits import Limits
from ..batch.outcomes import TriageOutcome, _triage_one


class TransportBroken(Exception):
    """The transport machinery itself is unusable (every remote worker
    dead, pool unspawnable).  The scheduler falls back to in-process
    completion of whatever is left."""


@dataclass(frozen=True)
class TriageSpec:
    """Per-batch settings shared by every attempt the scheduler runs."""

    config: EngineConfig | None = None
    telemetry: bool = False
    cache_dir: str | None = None
    incremental: bool = False


@dataclass(frozen=True)
class TriageTask:
    """One attempt of one report, as handed to a transport."""

    name: str
    attempt: int = 0
    limits: Limits | None = None   # already tightened for this attempt
    trace: dict | None = None      # TraceContext payload for the report


@dataclass
class InlineTransport:
    """Run attempts synchronously in this process.

    The serial triage path and the pool-broke fallback are this
    transport under the shared scheduler core — there is no separate
    serial retry loop any more.  ``submit`` blocks until the attempt
    finishes, so ``done`` is always immediately true and the grace
    window can never fire.  ``repro serve`` runs one per worker thread;
    each attempt binds its per-run state in its own context.
    """

    spec: TriageSpec = field(default_factory=TriageSpec)

    parallelism: int = 1
    broken_exceptions: tuple = ()
    idle_delay: float = 0.005

    def open(self) -> None:
        pass

    def submit(self, task: TriageTask) -> TriageOutcome:
        return _triage_one(
            task.name, self.spec.config, self.spec.telemetry,
            limits=task.limits, attempt=task.attempt,
            cache_dir=self.spec.cache_dir,
            incremental=self.spec.incremental,
            trace=task.trace,
        )

    def done(self, handle: TriageOutcome) -> bool:
        return True

    def result(self, handle: TriageOutcome) -> TriageOutcome:
        return handle

    def cancel(self, handle: TriageOutcome) -> None:
        pass

    def rebuild(self) -> None:
        pass

    def close(self, *, force: bool = False) -> None:
        pass


@dataclass
class LocalPoolTransport:
    """The multiprocessing pool backend (the historical ``triage --jobs``
    path, re-homed from ``batch/driver.py``).

    Attempts are submitted eagerly — the pool queues internally, so the
    grace clock starts at submit time exactly as the old driver's did.
    ``fork`` start keeps each worker's solver/intern/QE caches warm from
    the parent; platforms without it fall back to the default context.
    Pool-machinery failures (``OSError``, ``ProcessError``, ``EOFError``
    out of submit/poll) are breakage; the same exceptions raised *by a
    worker* surface through ``result`` and stay per-report errors.
    """

    jobs: int = 1
    spec: TriageSpec = field(default_factory=TriageSpec)

    broken_exceptions: tuple = (
        OSError, multiprocessing.ProcessError, EOFError)
    idle_delay: float = 0.005

    def __post_init__(self) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            self._ctx = multiprocessing.get_context()
        self._pool = None

    @property
    def parallelism(self) -> int:
        return self.jobs

    def open(self) -> None:
        self._pool = self._ctx.Pool(processes=self.jobs)

    def submit(self, task: TriageTask):
        return self._pool.apply_async(
            _triage_one, (task.name, self.spec.config, self.spec.telemetry),
            {"limits": task.limits, "attempt": task.attempt,
             "in_worker": True, "cache_dir": self.spec.cache_dir,
             "incremental": self.spec.incremental,
             "trace": task.trace},
        )

    def done(self, handle) -> bool:
        return handle.ready()

    def result(self, handle) -> TriageOutcome:
        return handle.get()

    def cancel(self, handle) -> None:
        # a pool offers no per-task cancellation; the stuck worker is
        # reclaimed by rebuild() or the forced close
        pass

    def rebuild(self) -> None:
        self._pool.terminate()
        self._pool.join()
        self._pool = self._ctx.Pool(processes=self.jobs)

    def close(self, *, force: bool = False) -> None:
        if self._pool is None:
            return
        # stuck workers would keep a close()/join() hanging forever
        if force:
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()
        self._pool = None
