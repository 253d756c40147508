"""The transport-agnostic retry/quarantine scheduler.

One event loop owns everything ``batch/driver.py`` used to hard-wire to
multiprocessing: the work queue, per-report retry with exponential
backoff and deadline tightening, stuck-worker grace-window detection,
quarantine into ``degraded``, wholesale worker rebuild when the fleet
wedges, and serial in-process fallback when the transport machinery
breaks outright.  Serial, process-pool and remote-worker execution are
the *same* loop parameterized by a transport
(:mod:`repro.sched.transports`) — there is exactly one copy of the
retry core.

Hang detection is two-layered, as in the original driver.  The
governor's deadline check inside every solver checkpoint catches hangs
the worker can see, returning a normal ``unknown resource`` outcome
with the *stage* that noticed — that is the attribution path.  The
scheduler's grace window (``deadline * 1.5 + 0.5s``, clocked from
submit) catches workers that never return at all (SIGKILL, hard
hangs); those quarantine without stage attribution because no code ran
to observe one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .. import obs
from ..obs import logging as olog
from ..limits import Limits
from ..batch.outcomes import (
    TriageOutcome,
    _finalize,
    _is_retryable,
    _max_attempts,
    _stuck_outcome,
)
from .transports import InlineTransport, TransportBroken, TriageSpec, TriageTask


@dataclass
class Scheduler:
    """Drive a set of reports to completion over one transport.

    :meth:`run` returns ``(outcomes, broke)`` with outcomes in input
    order; ``broke`` is True when the transport machinery failed and
    the tail of the batch was completed in-process (the batch still
    finishes — that is the ``degraded`` mode the driver reports).
    """

    transport: object
    limits: Limits | None = None
    spec: TriageSpec = field(default_factory=TriageSpec)

    def run(self, names: list[str],
            traces: dict[str, dict | None] | None = None,
            ) -> tuple[list[TriageOutcome], bool]:
        transport = self.transport
        limits = self.limits
        traces = traces or {}

        attempts_allowed = _max_attempts(limits)
        results: dict[str, TriageOutcome] = {}
        # (eligible_at, name, attempt) — a report waits here between
        # retries, and while the transport reports no capacity
        waiting: list[tuple[float, str, int]] = [(0.0, n, 0) for n in names]
        running: dict[int, tuple[str, int, object, float | None]] = {}
        next_task = 0
        stuck = 0
        ever_stuck = False
        broke = False

        # partial telemetry of failed attempts, kept per report so
        # retried and quarantined reports still contribute to the
        # fleet-wide merge
        partials: dict[str, list[dict]] = {}

        def settle(name: str, attempt: int, outcome: TriageOutcome) -> None:
            retryable = _is_retryable(outcome)
            if retryable and attempt + 1 < attempts_allowed:
                if outcome.telemetry is not None:
                    partials.setdefault(name, []).append(outcome.telemetry)
                obs.inc("batch.retries")
                olog.warning("batch.retry", report=name,
                             attempt=attempt + 1,
                             reason=outcome.error or outcome.exhausted_kind)
                delay = (limits.backoff_for(attempt + 1)
                         if limits is not None else 0.0)
                waiting.append((time.monotonic() + delay, name, attempt + 1))
                return
            if retryable:
                obs.inc("batch.quarantined")
                olog.error("batch.quarantine", report=name,
                           attempts=attempt + 1,
                           reason=outcome.error or outcome.exhausted_kind)
            if partials.get(name):
                outcome = replace(
                    outcome, prior_telemetry=tuple(partials[name]))
            results[name] = _finalize(outcome, attempt + 1, retryable)

        try:
            transport.open()
            while waiting or running:
                now = time.monotonic()

                # submit every attempt whose backoff has elapsed and the
                # transport will take
                still_waiting = []
                for eligible_at, name, attempt in waiting:
                    if eligible_at > now:
                        still_waiting.append((eligible_at, name, attempt))
                        continue
                    tightened = (limits.tightened(attempt)
                                 if limits is not None else None)
                    handle = transport.submit(TriageTask(
                        name=name, attempt=attempt, limits=tightened,
                        trace=traces.get(name),
                    ))
                    if handle is None:
                        # no capacity right now — stay queued, retry the
                        # submit on the next pass
                        still_waiting.append((now, name, attempt))
                        continue
                    grace_at = None
                    if tightened is not None \
                            and tightened.deadline is not None:
                        grace_at = now + tightened.deadline * 1.5 + 0.5
                    running[next_task] = (name, attempt, handle, grace_at)
                    next_task += 1
                waiting = still_waiting

                progressed = False
                for task_id in list(running):
                    name, attempt, handle, grace_at = running[task_id]
                    if transport.done(handle):
                        progressed = True
                        del running[task_id]
                        try:
                            outcome = transport.result(handle)
                        except Exception as exc:  # noqa: BLE001 - worker died
                            outcome = TriageOutcome(
                                name=name,
                                classification="unknown",
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        settle(name, attempt, outcome)
                    elif grace_at is not None and now > grace_at:
                        # worker never returned: killed, or hung somewhere
                        # no checkpoint runs — count it stuck and move on
                        progressed = True
                        del running[task_id]
                        transport.cancel(handle)
                        stuck += 1
                        ever_stuck = True
                        obs.inc("batch.stuck_workers")
                        olog.warning("batch.stuck_worker", report=name,
                                     attempt=attempt)
                        tightened = (limits.tightened(attempt)
                                     if limits is not None else None)
                        settle(name, attempt,
                               _stuck_outcome(name, tightened))

                if stuck >= transport.parallelism and running:
                    # every worker slot may be wedged: rebuild the fleet
                    # and resubmit the in-flight innocents at the same
                    # attempt
                    obs.inc("batch.pool_rebuilds")
                    olog.warning("batch.pool_rebuild", stuck=stuck,
                                 inflight=len(running))
                    transport.rebuild()
                    stuck = 0
                    now = time.monotonic()
                    for task_id in list(running):
                        name, attempt, _handle, _grace = \
                            running.pop(task_id)
                        waiting.append((now, name, attempt))

                if not progressed and (waiting or running):
                    if transport.idle_delay:
                        time.sleep(transport.idle_delay)
        except tuple(transport.broken_exceptions) + (TransportBroken,):
            broke = True
        finally:
            transport.close(force=ever_stuck or broke)

        if broke:
            # the transport broke; finish whatever did not complete,
            # in-process, through the same scheduler core
            olog.error("batch.serial_fallback",
                       remaining=sum(1 for n in names
                                     if n not in results))
            remaining = [n for n in names if n not in results]
            if remaining:
                fallback = Scheduler(
                    InlineTransport(spec=self.spec),
                    limits=limits, spec=self.spec,
                )
                outcomes, _ = fallback.run(remaining, traces)
                results.update({o.name: o for o in outcomes})

        return [results[name] for name in names], broke
