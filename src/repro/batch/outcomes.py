"""Plain-data triage outcomes and the worker-side report runner.

This module is the *bottom* of the batch layer: the result types
(:class:`TriageOutcome`, :class:`BatchResult`), the picklable
per-report worker function (:func:`_triage_one`) and the small policy
predicates the scheduler applies to its results (retry eligibility,
cacheability, quarantine finalization).  Everything here is importable
by both :mod:`repro.batch.driver` (the user-facing surface) and
:mod:`repro.sched` (the transport-agnostic scheduler) without creating
a layering cycle — the scheduler must never import the driver.

Results are plain data (:class:`TriageOutcome` carries strings and
numbers, never formulas), so nothing fragile crosses a process or HTTP
boundary.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from .. import obs
from ..obs import context as ocontext
from ..obs import provenance as prov
from ..cache import open_store, use_store
from ..diagnosis import EngineConfig, ExhaustiveOracle, diagnose_error
from ..diagnosis.stages import STAGE_VERSION, config_fingerprint
from ..limits import Limits, ResourceExhausted, governed
from ..limits import faults
from ..logic.digest import digest, digest_many, digest_text
from ..schema import TriageVerdict, dump_json, envelope
from .. import suite as _suite
from ..suite import benchmark_by_name


@dataclass(frozen=True)
class TriageOutcome:
    """The result of triaging one report — plain data only."""

    name: str
    classification: str            # a TriageVerdict value string
    expected: str | None = None    # ground-truth label, when known
    num_queries: int = 0
    rounds: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    error: str | None = None       # repr of an in-worker exception
    telemetry: dict | None = None  # per-report obs snapshot, when enabled
    events: tuple = ()             # per-report obs events, when enabled
    provenance: tuple = ()         # per-report derivation nodes, when enabled
    exhausted_stage: str | None = None  # stage whose checkpoint fired
    exhausted_kind: str | None = None   # steps | nodes | deadline | ...
    resource_spend: dict | None = None  # per-stage spend (governed runs)
    attempts: int = 1              # triage attempts consumed
    degraded: bool = False         # quarantined after exhausting retries
    prior_telemetry: tuple = ()    # partial snapshots of failed attempts
    cache: dict | None = None      # store provenance (digests, hit/miss)
    trace_id: str | None = None    # correlation id of the request trace
    worker: str | None = None      # remote worker URL (fleet runs only)

    @property
    def correct(self) -> bool:
        return self.expected is not None and \
            self.classification == self.expected

    @property
    def verdict(self) -> TriageVerdict:
        return TriageVerdict.from_classification(self.classification)

    def to_dict(self) -> dict:
        """The stable ``repro.result`` payload (see docs/API.md)."""
        return envelope(
            "triage_outcome",
            self.verdict,
            name=self.name,
            expected=self.expected,
            correct=self.correct if self.expected is not None else None,
            num_queries=self.num_queries,
            rounds=self.rounds,
            elapsed_seconds=self.elapsed_seconds,
            timed_out=self.timed_out,
            error=self.error,
            telemetry=self.telemetry,
            provenance=list(self.provenance) or None,
            exhausted_stage=self.exhausted_stage,
            exhausted_kind=self.exhausted_kind,
            resource_spend=self.resource_spend,
            attempts=self.attempts,
            degraded=self.degraded,
            cache=self.cache,
            trace_id=self.trace_id,
            worker=self.worker,
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return dump_json(self.to_dict(), indent=indent)


@dataclass
class BatchResult:
    """Outcome of a :func:`repro.batch.triage_many` run."""

    outcomes: list[TriageOutcome]
    wall_seconds: float
    jobs: int
    mode: str                      # 'serial' | 'parallel' | 'remote' | 'degraded'
    telemetry: dict | None = None  # merged per-worker obs snapshots
    limits: dict | None = None     # rendering of the governing Limits
    cache: dict | None = None      # driver-side store stats, when active
    trace_id: str | None = None    # correlation id of the batch ingress
    backend: str | None = None     # transport backend (fleet runs only)
    workers: list | None = None    # remote worker URLs (fleet runs only)
    steals: int | None = None      # work-steal count (fleet runs only)
    failures: list[TriageOutcome] = field(init=False)
    degraded: list[TriageOutcome] = field(init=False)

    def __post_init__(self) -> None:
        # quarantined reports are governed degradation, not
        # misclassification — they never count as failures
        self.degraded = [o for o in self.outcomes if o.degraded]
        self.failures = [
            o for o in self.outcomes
            if o.expected is not None and not o.correct
            and not o.degraded
            and o.verdict is not TriageVerdict.UNKNOWN_RESOURCE
        ]

    @property
    def accuracy(self) -> float:
        labelled = [o for o in self.outcomes if o.expected is not None]
        if not labelled:
            return 0.0
        return sum(1 for o in labelled if o.correct) / len(labelled)

    @property
    def verdict(self) -> TriageVerdict:
        """The strongest claim about the batch: any real bug makes the
        batch ``REAL_BUG``; otherwise any unknown (including resource
        exhaustion) leaves it ``UNKNOWN``; a batch of pure false alarms
        is ``FALSE_ALARM``."""
        verdicts = {o.verdict for o in self.outcomes}
        if TriageVerdict.REAL_BUG in verdicts:
            return TriageVerdict.REAL_BUG
        if (TriageVerdict.UNKNOWN in verdicts
                or TriageVerdict.UNKNOWN_RESOURCE in verdicts
                or not verdicts):
            return TriageVerdict.UNKNOWN
        return TriageVerdict.FALSE_ALARM

    @property
    def verdict_counts(self) -> dict[str, int]:
        counts = {v.value: 0 for v in TriageVerdict}
        for outcome in self.outcomes:
            counts[outcome.verdict.value] += 1
        return counts

    @property
    def resource_spend(self) -> dict[str, int]:
        """Per-stage spend summed across every governed outcome."""
        merged: dict[str, int] = {}
        for outcome in self.outcomes:
            for stage, n in (outcome.resource_spend or {}).items():
                merged[stage] = merged.get(stage, 0) + n
        return merged

    def by_name(self, name: str) -> TriageOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no outcome for {name!r}")

    def to_dict(self) -> dict:
        """The stable ``repro.result`` payload (see docs/API.md)."""
        return envelope(
            "batch",
            self.verdict,
            wall_seconds=self.wall_seconds,
            jobs=self.jobs,
            mode=self.mode,
            accuracy=self.accuracy,
            verdict_counts=self.verdict_counts,
            outcomes=[o.to_dict() for o in self.outcomes],
            telemetry=self.telemetry,
            limits=self.limits,
            cache=self.cache,
            resource_spend=self.resource_spend or None,
            degraded=[o.name for o in self.degraded],
            trace_id=self.trace_id,
            backend=self.backend,
            workers=self.workers,
            steals=self.steals,
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return dump_json(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _report_key(bench, config: EngineConfig,
                invariants_digest: str, success_digest: str) -> str:
    """Cache key of a whole-report triage artifact: the analysis
    judgment digests plus everything else the verdict depends on."""
    return digest_many(
        "triage", STAGE_VERSION, bench.name, str(bench.oracle_radius),
        str(config.max_rounds), config_fingerprint(config),
        invariants_digest, success_digest,
    )


def _merge_cache_info(report: dict | None,
                      engine: dict | None) -> dict | None:
    """One ``cache`` block per outcome: the engine's store delta and
    judgment digests, overlaid with the report-level analyze/triage
    status (the report level is authoritative where they overlap)."""
    if report is None and engine is None:
        return None
    merged = dict(engine or {})
    merged.update(report or {})
    return merged


def _cacheable(outcome: TriageOutcome) -> bool:
    """Only clean, deterministic verdicts may be served from the store:
    crashes and resource exhaustion depend on the run, not the input."""
    return outcome.error is None and outcome.exhausted_kind is None \
        and outcome.verdict is not TriageVerdict.UNKNOWN_RESOURCE


#: The outcome fields a ``triage`` store artifact records.
_RECORDED = ("classification", "expected", "num_queries", "rounds")


def _triage_one(name: str, config: EngineConfig | None = None,
                telemetry: bool = False, limits: Limits | None = None,
                attempt: int = 0, in_worker: bool = False,
                cache_dir: str | None = None,
                incremental: bool = False,
                trace: dict | None = None) -> TriageOutcome:
    """Triage a single benchmark report against its ground-truth oracle.

    Top-level so it pickles under any multiprocessing start method.  All
    process-global caches (default solver, intern tables, QE caches)
    stay warm between calls within one worker.

    With ``cache_dir`` the report runs with the persistent store active:
    the engine's stage functions and the SMT verdict cache read and write
    content-addressed artifacts under it (workers share the directory;
    writes are atomic).  With ``incremental`` additionally, the report
    itself can be short-circuited: the source digest resolves to the
    judgment digests through the ``analyze`` artifact, and an unchanged
    judgment resolves to a recorded verdict through the ``triage``
    artifact — reports whose ``(I, phi)`` digest is unchanged are never
    recomputed.

    With ``limits`` the whole report — loading, analysis and the
    diagnosis loop — runs under one governor, so the deadline covers
    everything and per-stage spend is attributed to this report.  Fault
    injection (``REPRO_FAULT``) needs a governor to observe checkpoints,
    so an active fault spec forces an (otherwise unlimited) one.

    With ``telemetry`` the report runs under an obs capture scope: the
    outcome carries the report's own counter/span snapshot plus the span
    events (and, when provenance is on, derivation nodes) it emitted,
    all plain data, so the driver can merge them across workers.  The
    snapshot is stamped with the attempt number, and failed attempts
    keep their partial telemetry too — a quarantined report still shows
    up in the fleet-wide merge.

    ``trace`` carries a :class:`~repro.obs.context.TraceContext` as
    plain data across the process boundary; it (or, failing that, the
    ambient context) is bound for the report's duration, so every span,
    provenance node, log line and the telemetry snapshot recorded here
    joins the ingress's trace.

    The trace, the capture scope, the governor and the store are all
    bound per context, so concurrent attempts on ``repro serve`` worker
    threads never see each other's.
    """
    start = time.perf_counter()
    ctx = ocontext.TraceContext.from_dict(trace) if trace is not None \
        else ocontext.current()
    trace_id = ctx.trace_id if ctx is not None else None
    if in_worker:
        faults.mark_worker()
    faults.set_report(name)
    if telemetry and not obs.is_enabled():
        obs.enable()
    # slice by span id, not buffer offset: the bounded event deque may
    # evict old entries mid-report, which would shift any saved offset
    events_marker = obs.span_sequence() if telemetry else None
    prov_marker = prov.mark() if prov.is_enabled() else None
    if limits is None and faults.active() is not None:
        limits = Limits()
    store = open_store(cache_dir) if cache_dir is not None else None
    cfg = config or EngineConfig()
    cap = recorded = cache_info = report_key = None
    try:
        with ocontext.bind(ctx), obs.capture() as cap, \
                obs.span("triage.report", report=name, attempt=attempt), \
                governed(limits) if limits is not None else nullcontext(), \
                use_store(store) if store is not None else nullcontext():
            bench = benchmark_by_name(name)
            if store is not None and incremental:
                # analyze stage: map the source digest to the judgment
                # digests without re-running the abstract interpreter
                source_digest = digest_text(_suite.load_source(bench))
                analyze_key = digest_many(
                    "analyze", STAGE_VERSION, bench.name, source_digest)
                analyzed = store.get("analyze", analyze_key)
                cache_info = {
                    "store": str(store.root),
                    "incremental": True,
                    "source_digest": source_digest,
                    "analyze": "hit" if analyzed is not None else "miss",
                    "triage": "miss",
                }
                if analyzed is not None:
                    cache_info["invariants_digest"] = \
                        analyzed["invariants"]
                    cache_info["success_digest"] = analyzed["success"]
                    report_key = _report_key(
                        bench, cfg,
                        analyzed["invariants"], analyzed["success"],
                    )
                    recorded = store.get("triage", report_key)
            if recorded is None:
                program, analysis = _suite.load_analysis(bench)
                if store is not None and incremental:
                    invariants_digest = digest(analysis.invariants)
                    success_digest = digest(analysis.success)
                    cache_info["invariants_digest"] = invariants_digest
                    cache_info["success_digest"] = success_digest
                    if cache_info["analyze"] == "miss":
                        store.put("analyze", analyze_key, {
                            "invariants": invariants_digest,
                            "success": success_digest,
                        })
                    # an edited source with an unchanged judgment still
                    # resolves to the recorded verdict
                    report_key = _report_key(
                        bench, cfg, invariants_digest, success_digest)
                    recorded = store.get("triage", report_key)
            if recorded is None:
                oracle = ExhaustiveOracle(
                    program, analysis, radius=bench.oracle_radius
                )
                # the engine inherits the ambient governor installed above
                result = diagnose_error(analysis, oracle, config)
                verdict = dict(
                    classification=result.classification,
                    expected=bench.classification,
                    num_queries=result.num_queries,
                    rounds=result.rounds,
                    timed_out=result.exhausted_kind == "deadline",
                    exhausted_stage=result.exhausted_stage,
                    exhausted_kind=result.exhausted_kind,
                    resource_spend=result.resource_spend,
                    cache=_merge_cache_info(cache_info, result.cache),
                )
            else:
                cache_info["triage"] = "hit"
                obs.inc("batch.reports_cached")
                verdict = {k: recorded[k] for k in _RECORDED}
                verdict["cache"] = cache_info
    except ResourceExhausted as exc:
        # a limit ran out before the engine's own handler could see it
        # (loading / abstract interpretation) — same verdict, same shape;
        # the capture scope already closed, so the partial telemetry of
        # the failed attempt is still collected
        verdict = dict(
            classification=TriageVerdict.UNKNOWN_RESOURCE.value,
            timed_out=exc.kind == "deadline",
            exhausted_stage=exc.stage,
            exhausted_kind=exc.kind,
        )
    except Exception as exc:  # noqa: BLE001 - outcomes must cross processes
        verdict = dict(
            classification="unknown",
            error=f"{type(exc).__name__}: {exc}",
            exhausted_stage=getattr(exc, "stage", None),
        )
    finally:
        faults.set_report(None)
    snap = cap.snapshot if cap is not None else None
    if snap is not None:
        snap.update(report=name, attempt=attempt)
        if trace_id is not None:
            snap["trace"] = trace_id
    outcome = TriageOutcome(
        name=name,
        elapsed_seconds=time.perf_counter() - start,
        telemetry=snap,
        events=() if events_marker is None
        else tuple(obs.events_since(events_marker, trace_id)),
        provenance=() if prov_marker is None
        else tuple(prov.nodes_since(prov_marker, trace_id)),
        trace_id=trace_id,
        **verdict,
    )
    if report_key is not None and recorded is None \
            and _cacheable(outcome):
        store.put("triage", report_key,
                  {k: getattr(outcome, k) for k in _RECORDED})
    return outcome


def _load_one(name: str):
    """Load + analyze one benchmark (worker for ``load_many``)."""
    bench = benchmark_by_name(name)
    program, analysis = _suite.load_analysis(bench)
    return bench, program, analysis


# ---------------------------------------------------------------------------
# scheduler policy predicates
# ---------------------------------------------------------------------------

def _stuck_outcome(name: str, limits: Limits | None) -> TriageOutcome:
    """The outcome for a worker that never returned (killed or a hang no
    checkpoint could observe) — no stage attribution is possible."""
    deadline = limits.deadline if limits is not None else None
    return TriageOutcome(
        name=name,
        classification=TriageVerdict.UNKNOWN_RESOURCE.value,
        expected=None,
        elapsed_seconds=deadline or 0.0,
        timed_out=True,
        exhausted_kind="deadline",
        error="worker unresponsive past the grace window",
    )


def _is_retryable(outcome: TriageOutcome) -> bool:
    """Crashes and resource exhaustion earn another attempt; genuine
    verdicts (including plain ``unknown`` from round exhaustion) are
    deterministic and final."""
    return outcome.error is not None or \
        outcome.verdict is TriageVerdict.UNKNOWN_RESOURCE


def _finalize(outcome: TriageOutcome, attempts: int) -> TriageOutcome:
    """Stamp the attempt count; quarantine still-retryable outcomes."""
    return replace(
        outcome, attempts=attempts,
        degraded=outcome.degraded or _is_retryable(outcome),
    )


def _max_attempts(limits: Limits | None) -> int:
    return 1 if limits is None else max(1, limits.retries + 1)


def _merged_telemetry(outcomes: list[TriageOutcome],
                      telemetry: bool) -> dict | None:
    """One fleet-wide snapshot: every attempt of every report counts.

    Degraded reports and failed attempts contribute their partial
    snapshots (each stamped with its attempt number) — quarantining a
    report must not silently drop the work its workers did.
    """
    if not telemetry:
        return None
    snaps: list[dict | None] = []
    for o in outcomes:
        snaps.extend(o.prior_telemetry)
        snaps.append(o.telemetry)
    return obs.merge_snapshots(*snaps)
