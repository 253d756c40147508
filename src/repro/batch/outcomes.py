"""Plain-data triage outcomes and the report runner.

This module is the *bottom* of the batch layer: the result types
(:class:`TriageOutcome`, :class:`BatchResult`), the report runner every
surface shares (:func:`run_report`), the picklable per-report worker
function around it (:func:`_triage_one`) and the small policy
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
from ..cache import open_store, use_store
from ..diagnosis import (
    DiagnosisResult,
    EngineConfig,
    ExhaustiveOracle,
    Oracle,
    SamplingOracle,
    Verdict,
    diagnose_error,
)
from ..diagnosis.stages import STAGE_VERSION, config_fingerprint
from ..lang import Program
from ..limits import Limits, ResourceExhausted, current_governor, governed
from ..limits import faults
from ..logic.digest import digest, digest_many, digest_text
from ..schema import TriageVerdict, dump_json, envelope
from .. import suite as _suite
from ..suite import Benchmark, benchmark_by_name


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
# the report runner
# ---------------------------------------------------------------------------

def _analyze_key(bench, source_digest: str) -> str:
    """Cache key of the ``analyze`` artifact, which maps a benchmark's
    source digest to its judgment digests."""
    return digest_many("analyze", STAGE_VERSION, bench.name, source_digest)


def _report_key(bench, config: EngineConfig, judgment: dict) -> str:
    """Cache key of a whole-report triage artifact: the analysis
    judgment digests plus everything else the verdict depends on."""
    return digest_many(
        "triage", STAGE_VERSION, bench.name, str(bench.oracle_radius),
        str(config.max_rounds), config_fingerprint(config),
        judgment["invariants"], judgment["success"],
    )


def recorded_judgment(store, bench) -> dict | None:
    """The judgment digests (``invariants``, ``success``) the store
    records for a benchmark's current source: the first link of the
    incremental chain."""
    source_digest = digest_text(_suite.load_source(bench))
    return store.get("analyze", _analyze_key(bench, source_digest))


def recorded_verdict(store, bench, config: EngineConfig) -> dict | None:
    """The whole chain: the ``triage`` artifact recorded for the
    judgment of a benchmark's current source."""
    judgment = recorded_judgment(store, bench)
    return None if judgment is None \
        else store.get("triage", _report_key(bench, config, judgment))


#: The outcome fields a ``triage`` store artifact records.
_RECORDED = ("classification", "expected", "num_queries", "rounds")


@dataclass
class ReportRun:
    """Everything :func:`run_report` produced for one report."""

    bench: Benchmark | None = None
    program: Program | None = None      # None until the front end finished
    diagnosis: DiagnosisResult | None = None  # None if recorded or error
    patches: list | None = None         # synthesized when repair was asked
    exhausted: ResourceExhausted | None = None  # a limit that ran out
    recorded: dict | None = None        # the stored verdict that replaced it
    cache: dict | None = None           # report-level store status
    telemetry: dict | None = None       # the report's obs snapshot
    events: tuple = ()                  # the report's span events
    nodes: tuple = ()                   # the report's provenance nodes
    error: Exception | None = None      # anything else the run raised


def _recall(run: ReportRun, store, config: EngineConfig,
            judgment: dict) -> str:
    """Look up the verdict recorded for ``judgment`` into ``run``,
    stamping its digests on the cache block; returns the lookup key."""
    run.cache["invariants_digest"] = judgment["invariants"]
    run.cache["success_digest"] = judgment["success"]
    key = _report_key(run.bench, config, judgment)
    run.recorded = store.get("triage", key)
    return key


def run_report(source: str | None = None, *, name: str | None = None,
               oracle: Oracle | None = None,
               config: EngineConfig | None = None,
               limits: Limits | None = None, store=None,
               auto_annotate: bool = True, incremental: bool = False,
               repair: bool = False, max_patches: int | None = None,
               attempt: int = 0) -> ReportRun:
    """Run one report from start to finish.

    The front end (parse → annotate → analyze), then the Figure 6 loop,
    whose round 0 is the Lemma 1/2 check, then, with ``repair``, patch
    synthesis for a report the loop did not close alone or as a bug.
    ``source`` is the program text; without it, ``name`` must be a
    Figure 7 benchmark.  ``name`` also labels the ``triage.report``
    span.  The oracle defaults to the benchmark's ground truth, or to
    random testing (:class:`SamplingOracle`) for other sources.

    One scope covers it all: the span, an obs capture (its snapshot,
    events and nodes land on the run), a governor over ``limits`` and
    ``store`` as the active store.  Running out of a limit anywhere
    sets ``exhausted``, and ``diagnosis`` is then a ``RESOURCE_EXHAUSTED``
    result (with no analysis when the front end ran out); any other
    exception lands in ``error``.  With
    ``incremental`` and a store, a benchmark whose source, or failing
    that whose ``(I, phi)`` judgment, has a recorded verdict skips the
    loop (``recorded``), and a fresh clean verdict is recorded once the
    scope has closed.
    """
    cfg = config or EngineConfig()
    run = ReportRun()
    cap = report_key = None
    try:
        with obs.capture() as cap, \
                obs.span("triage.report", report=name, attempt=attempt), \
                governed(limits) if limits is not None else nullcontext(), \
                use_store(store) if store is not None else nullcontext():
            try:
                if source is None:
                    run.bench = benchmark_by_name(name)
                    source = _suite.load_source(run.bench)
                chain = incremental and store is not None \
                    and run.bench is not None
                if chain:
                    source_digest = digest_text(source)
                    judgment = store.get(
                        "analyze", _analyze_key(run.bench, source_digest))
                    run.cache = {
                        "store": str(store.root), "incremental": True,
                        "source_digest": source_digest,
                        "analyze": "miss" if judgment is None else "hit",
                        "triage": "miss",
                    }
                    if judgment is not None:
                        report_key = _recall(run, store, cfg, judgment)
                if run.recorded is None:
                    program, analysis = _suite.front_end(
                        source, auto_annotate=auto_annotate)
                    run.program = program
                    if chain:
                        fresh = {"invariants": digest(analysis.invariants),
                                 "success": digest(analysis.success)}
                        if judgment is None:
                            store.put("analyze", _analyze_key(
                                run.bench, source_digest), fresh)
                        # an edited source with an unchanged judgment
                        # still resolves to the recorded verdict
                        report_key = _recall(run, store, cfg, fresh)
                if run.recorded is not None:
                    run.cache["triage"] = "hit"
                    obs.inc("batch.reports_cached")
                else:
                    if oracle is None:
                        oracle = ExhaustiveOracle(
                            program, analysis,
                            radius=run.bench.oracle_radius) \
                            if run.bench is not None \
                            else SamplingOracle(program, analysis)
                    # the engine inherits the governor installed above
                    result = run.diagnosis = diagnose_error(
                        analysis, oracle, config)
                    if repair and not result.decided_by_analysis \
                            and result.triage_verdict in (
                                TriageVerdict.FALSE_ALARM,
                                TriageVerdict.UNKNOWN):
                        from ..repair import synthesize_repairs

                        run.patches = synthesize_repairs(
                            program, analysis, config=config,
                            session=result, max_patches=max_patches)
            except ResourceExhausted as exc:
                run.exhausted = exc
                if run.diagnosis is None:
                    # the front end ran out before the engine could
                    governor = current_governor()
                    run.diagnosis = DiagnosisResult(
                        verdict=Verdict.RESOURCE_EXHAUSTED,
                        interactions=[], rounds=0, invariants=None,
                        witnesses=[], analysis=None,
                        resource_spend=governor.spend_snapshot()
                        if governor is not None else None,
                        exhausted_stage=exc.stage,
                        exhausted_kind=exc.kind,
                    )
    except Exception as exc:  # noqa: BLE001 - the caller decides
        run.error = exc
    if cap is not None:
        run.telemetry = cap.snapshot
        run.events, run.nodes = tuple(cap.events), tuple(cap.nodes)
    result = run.diagnosis
    if result is not None:
        result.telemetry = run.telemetry
        if limits is not None:
            result.limits = limits.to_dict()
    if report_key is not None and run.recorded is None \
            and run.error is None and result is not None \
            and result.triage_verdict is not TriageVerdict.UNKNOWN_RESOURCE:
        store.put("triage", report_key, {
            "classification": result.classification,
            "expected": run.bench.classification,
            "num_queries": result.num_queries,
            "rounds": result.rounds,
        })
    return run


def _outcome_fields(run: ReportRun) -> dict:
    """The :class:`TriageOutcome` fields of a finished run."""
    if run.error is not None:
        exc = run.error
        return dict(classification="unknown",
                    error=f"{type(exc).__name__}: {exc}",
                    exhausted_stage=getattr(exc, "stage", None))
    if run.recorded is not None:
        return {**{k: run.recorded[k] for k in _RECORDED},
                "cache": run.cache}
    result = run.diagnosis
    fields = dict(
        classification=result.classification,
        timed_out=result.exhausted_kind == "deadline",
        exhausted_stage=result.exhausted_stage,
        exhausted_kind=result.exhausted_kind,
    )
    if result.analysis is not None:
        # the report level is authoritative where the engine's store
        # delta and the analyze/triage status overlap
        cache = {**(result.cache or {}), **(run.cache or {})}
        fields.update(
            expected=run.bench.classification,
            num_queries=result.num_queries,
            rounds=result.rounds,
            resource_spend=result.resource_spend,
            cache=cache or None,
        )
    return fields


def _triage_one(name: str, config: EngineConfig | None = None,
                telemetry: bool = False, limits: Limits | None = None,
                attempt: int = 0, in_worker: bool = False,
                cache_dir: str | None = None,
                incremental: bool = False,
                trace: dict | None = None) -> TriageOutcome:
    """Triage a single benchmark report against its ground-truth oracle.

    Top-level so it pickles under any multiprocessing start method.  All
    process-global caches (default solver, intern tables, QE caches)
    stay warm between calls within one worker.  The report itself is
    one :func:`run_report` call, with the store under ``cache_dir``
    (workers share the directory; writes are atomic) and, with
    ``incremental``, served from recorded verdicts where it can be.
    Fault injection (``REPRO_FAULT``) needs a governor to observe
    checkpoints, so an active fault spec forces an (otherwise
    unlimited) one.

    With ``telemetry`` the outcome carries the report's own counter/span
    snapshot, stamped with the attempt number, plus the span events
    (and, when provenance is on, derivation nodes) its scope recorded,
    all plain data, so :func:`triage_many` can merge them across workers;
    failed attempts keep their partial telemetry too.  ``trace`` carries a
    :class:`~repro.obs.context.TraceContext` as plain data across the
    process boundary; it (or, failing that, the ambient context) is
    bound for the report's duration, so everything recorded here joins
    the ingress's trace.
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
    if limits is None and faults.active() is not None:
        limits = Limits()
    try:
        with ocontext.bind(ctx):
            run = run_report(
                name=name, config=config, limits=limits,
                store=open_store(cache_dir) if cache_dir is not None
                else None,
                incremental=incremental, attempt=attempt)
    finally:
        faults.set_report(None)
    snap = run.telemetry
    if snap is not None:
        snap.update(report=name, attempt=attempt)
        if trace_id is not None:
            snap["trace"] = trace_id
    return TriageOutcome(
        name=name,
        elapsed_seconds=time.perf_counter() - start,
        telemetry=snap,
        events=run.events,
        provenance=run.nodes,
        trace_id=trace_id,
        **_outcome_fields(run),
    )


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
    degraded = outcome.degraded or _is_retryable(outcome)
    if attempts == outcome.attempts and degraded == outcome.degraded:
        return outcome  # the usual first-attempt outcome: nothing to copy
    return replace(outcome, attempts=attempts, degraded=degraded)


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
