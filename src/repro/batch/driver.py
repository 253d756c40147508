"""Batch triage of error reports over the transport-agnostic scheduler.

Batch triage runs many error reports, not one report at a time.  Each
report's diagnosis is independent of every other report's, so the
driver fans reports out over any :mod:`repro.sched` transport:

* ``jobs <= 1`` (or a single report) — the in-process
  :class:`~repro.sched.InlineTransport` (mode ``serial``);
* ``jobs > 1`` — the :class:`~repro.sched.LocalPoolTransport`
  process pool (mode ``parallel``), per-worker solver/intern/QE
  caches kept warm across the reports each worker handles;
* ``workers=[url, ...]`` — the :class:`~repro.sched.RemoteTransport`
  driving running ``repro serve`` instances (mode ``remote``),
  sharded by content digest with work stealing, ideally over a
  shared cache root (see ``docs/SCALING.md``).

All three run the *same* scheduler core (:class:`repro.sched.Scheduler`)
— one copy of per-report retry with backoff, stuck-worker grace-window
detection, quarantine into :attr:`BatchResult.degraded`, worker
rebuild, and serial in-process fallback when the transport machinery
breaks — and the same telemetry/provenance/trace merge regardless of
where the attempts ran.

Hang detection is two-layered.  The governor's deadline check inside
every solver checkpoint catches hangs the worker can see (including
``sleep`` faults), returning a normal ``unknown resource`` outcome with
the *stage* that noticed — that is the attribution path.  The
scheduler's grace window (``deadline * 1.5 + 0.5s``) catches workers
that never return at all (SIGKILL, hard hangs); those quarantine
without stage attribution because no code ran to observe one.

Results are plain data (:class:`TriageOutcome` carries strings and
numbers, never formulas), so nothing fragile crosses a process or HTTP
boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from .. import obs
from ..obs import context as ocontext
from ..obs import logging as olog
from ..cache import open_store
from ..diagnosis import EngineConfig
from ..limits import Limits
from ..suite import BENCHMARKS

# the result types and worker-side helpers live in outcomes.py so the
# scheduler can use them without importing this surface; re-exported
# here because this module has always been their public home
from .outcomes import (  # noqa: F401  (re-exports)
    BatchResult,
    TriageOutcome,
    _load_one,
    _merged_telemetry,
)
from ..sched import (
    InlineTransport,
    LocalPoolTransport,
    RemoteTransport,
    Scheduler,
    TriageSpec,
)


def _default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


def triage_many(
    names: list[str] | None = None,
    *,
    jobs: int | None = None,
    config: EngineConfig | None = None,
    telemetry: bool = False,
    limits: Limits | None = None,
    cache_dir: str | None = None,
    incremental: bool = False,
    workers: list[str] | None = None,
    transport=None,
) -> BatchResult:
    """Triage many reports, in parallel when more than one core helps.

    ``names`` defaults to the full Figure 7 suite.  ``jobs`` defaults to
    the CPU count; ``jobs <= 1`` (or a single report) selects the serial
    path outright.  ``limits`` governs each report individually
    (deadline, per-stage budgets, retry policy — see
    :mod:`repro.limits`); reports that run out come back as
    ``"unknown resource"`` and, once retries are exhausted, are
    quarantined into ``BatchResult.degraded``.  ``telemetry`` collects
    per-report obs snapshots in every worker and merges them into
    ``BatchResult.telemetry``.

    ``cache_dir`` activates the persistent content-addressed store for
    every report (stage artifacts, SMT verdicts), shared across
    workers and across runs.  ``incremental`` additionally serves whole
    reports from recorded verdicts when their ``(I, phi)`` judgment
    digest is unchanged — re-triaging an edited suite recomputes only
    the reports the edit actually touched.

    ``workers`` fans the batch out over running ``repro serve``
    instances instead of local processes (``repro triage --workers``);
    give the fleet a shared ``cache_dir`` so warm digests are never
    recomputed anywhere.  ``transport`` accepts any pre-built
    :mod:`repro.sched` transport outright (it wins over ``workers``);
    its ``spec`` is rebuilt from this call's settings.
    """
    if incremental and cache_dir is None:
        raise ValueError("incremental re-triage needs cache_dir")
    if names is None:
        names = [b.name for b in BENCHMARKS]

    # also honour a caller that enabled obs globally before batching
    telemetry = telemetry or obs.is_enabled()
    limits_payload = limits.to_dict() if limits is not None else None
    spec = TriageSpec(config=config, telemetry=telemetry,
                      cache_dir=cache_dir, incremental=incremental)

    remote = transport is not None or workers is not None
    if remote:
        if transport is None:
            transport = RemoteTransport(list(workers), spec=spec)
        else:
            transport.spec = spec
        jobs = transport.parallelism
    else:
        if jobs is None:
            jobs = _default_jobs()
        jobs = max(1, min(jobs, len(names))) if names else 1
        if jobs <= 1 or len(names) <= 1:
            jobs = 1
            transport = InlineTransport(spec=spec)
        else:
            transport = LocalPoolTransport(jobs=jobs, spec=spec)

    # the batch is an ingress: adopt the caller's trace (a serve job, a
    # CLI invocation) or mint a fresh root, and hand every report its
    # own child hop so worker-side records share the trace id
    root = ocontext.current()
    if root is None:
        root = ocontext.new_trace("batch")

    start = time.perf_counter()
    with ocontext.bind(root):
        olog.info("batch.start", reports=len(names), jobs=jobs)
        traces = {n: root.child().to_dict() for n in names}
        scheduler = Scheduler(transport, limits=limits, spec=spec)
        outcomes, broke = scheduler.run(names, traces)
        if remote:
            mode = "degraded" if broke else "remote"
        elif isinstance(transport, InlineTransport):
            mode = "serial"
        else:
            mode = "degraded" if broke else "parallel"
        result = BatchResult(
            outcomes=outcomes,
            wall_seconds=time.perf_counter() - start,
            jobs=jobs,
            mode=mode,
            telemetry=_merged_telemetry(outcomes, telemetry),
            limits=limits_payload,
            cache=_store_stats(cache_dir),
            trace_id=root.trace_id,
            backend="remote" if remote else None,
            workers=(list(getattr(transport, "urls", workers or []))
                     if remote else None),
            steals=getattr(transport, "steals", None) if remote else None,
        )
        olog.info("batch.done", reports=len(names), mode=result.mode,
                  wall_s=round(result.wall_seconds, 4),
                  degraded=len(result.degraded))
        return result


def _store_stats(cache_dir: str | None) -> dict | None:
    """Driver-side store statistics for the batch envelope (entry count
    reflects the shared directory; counters are this process's)."""
    if cache_dir is None:
        return None
    return open_store(cache_dir).stats()


def triage_with_retries(name: str, config: EngineConfig | None,
                        telemetry: bool,
                        limits: Limits | None,
                        cache_dir: str | None = None,
                        incremental: bool = False,
                        trace: dict | None = None) -> TriageOutcome:
    """One report through the full scheduler retry/quarantine policy,
    in-process — the serve daemon's per-job entry point.  Safe on
    concurrent threads: each attempt binds its governor, store, trace
    and telemetry scope in its own context."""
    spec = TriageSpec(config=config, telemetry=telemetry,
                      cache_dir=cache_dir, incremental=incremental)
    scheduler = Scheduler(InlineTransport(spec=spec), limits=limits,
                          spec=spec)
    outcomes, _broke = scheduler.run([name], {name: trace})
    return outcomes[0]


def load_many(
    benches,
    *,
    jobs: int | None = None,
):
    """Load + analyze benchmarks, in input order, optionally in parallel.

    Returns ``[(benchmark, program, analysis), ...]``.  Used by the
    benchmark harness and the user-study driver to warm a whole suite.
    Falls back to serial loading if worker processes are unavailable.
    """
    names = [b.name for b in benches]
    if jobs is None:
        jobs = _default_jobs()
    jobs = max(1, min(jobs, len(names))) if names else 1

    if jobs <= 1 or len(names) <= 1:
        return [_load_one(name) for name in names]

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        ctx = multiprocessing.get_context()
    try:
        with ctx.Pool(processes=jobs) as pool:
            return pool.map(_load_one, names)
    except (OSError, multiprocessing.ProcessError, EOFError):
        return [_load_one(name) for name in names]
