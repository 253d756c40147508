"""The stable public API: one :class:`Pipeline` facade, one verdict
vocabulary, one JSON schema.

Most callers construct a :class:`Pipeline` and use its methods::

    from repro import Pipeline, ScriptedOracle

    pipe = Pipeline()
    outcome = pipe.analyze(source)            # -> AnalysisOutcome
    result = pipe.diagnose(source, oracle)    # -> DiagnosisResult
    batch = pipe.triage(jobs=4)               # -> BatchResult
    study = pipe.user_study(seed=2012)        # -> StudyResult

Every result type shares the same protocol (see :mod:`repro.schema` and
``docs/API.md``):

* ``triage_verdict`` (and, except on the analysis outcome whose
  ``verdict`` predates the redesign, ``verdict``) — the unified
  :class:`~repro.schema.TriageVerdict`;
* ``to_dict()`` / ``to_json()`` — the stable, versioned JSON payload,
  with an obs telemetry snapshot embedded when instrumentation is on.

The pre-redesign entry points (``analyze_source``, ``diagnose_source``,
``triage_suite``) were deprecated in the facade release and are now
removed; construct a :class:`Pipeline` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import obs
from .abstract import annotate_program
from .analysis import AnalysisResult, analyze_program
from .batch import BatchResult, triage_many
from .diagnosis import (
    DiagnosisResult,
    EngineConfig,
    ExhaustiveOracle,
    Oracle,
    SamplingOracle,
    diagnose_error,
)
from .lang import Program, parse_program
from .limits import Limits, ResourceExhausted
from .logic import neg
from .schema import TriageVerdict, dump_json, envelope
from .smt import SmtSolver
from .suite import Benchmark, benchmark_by_name, load_analysis
from .userstudy import StudyResult
from .userstudy import run_user_study as _run_user_study


class InitialVerdict(Enum):
    """Outcome of the analysis alone (Lemmas 1 and 2)."""

    VERIFIED = "verified"          # I |= phi: error-free
    REFUTED = "refuted"            # I |= !phi: definitely buggy
    UNCERTAIN = "uncertain"        # needs diagnosis


@dataclass
class AnalysisOutcome:
    """Program + analysis + the Lemma 1/2 classification attempt."""

    program: Program
    analysis: AnalysisResult
    verdict: InitialVerdict
    telemetry: dict | None = None  # obs snapshot delta, when enabled

    @property
    def invariants(self):
        return self.analysis.invariants

    @property
    def success(self):
        return self.analysis.success

    @property
    def triage_verdict(self) -> TriageVerdict:
        """The unified result vocabulary (see :mod:`repro.schema`)."""
        return TriageVerdict.from_classification(self.verdict.value)

    def to_dict(self) -> dict:
        """The stable ``repro.result`` payload (see docs/API.md)."""
        return envelope(
            "analysis",
            self.triage_verdict,
            program=self.program.name,
            initial_verdict=self.verdict.value,
            invariants=str(self.invariants),
            success=str(self.success),
            telemetry=self.telemetry,
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return dump_json(self.to_dict(), indent=indent)


class Pipeline:
    """The one front door to the whole reproduction.

    Bundles the configuration every entry point used to take ad hoc —
    annotation, engine knobs, a shared solver — and exposes the four
    workloads as methods.  Passing ``telemetry=True`` switches the
    process-wide obs instrumentation on, so every result produced by
    this pipeline embeds its telemetry snapshot.

    ``cache_dir`` opens the persistent content-addressed store there
    (:mod:`repro.cache`) and activates it for every workload this
    pipeline runs: diagnosis stage artifacts and SMT verdicts are
    reused across runs and processes, and results carry a ``cache``
    provenance block.  ``incremental=True`` (triage only) additionally
    serves whole reports whose ``(I, phi)`` judgment digest is
    unchanged from recorded verdicts.
    """

    def __init__(self, *, auto_annotate: bool = True,
                 config: EngineConfig | None = None,
                 solver: SmtSolver | None = None,
                 telemetry: bool = False,
                 limits: Limits | None = None,
                 cache_dir: str | None = None,
                 incremental: bool = False):
        if incremental and cache_dir is None:
            raise ValueError("incremental re-triage needs cache_dir")
        self._auto_annotate = auto_annotate
        self._config = config
        self._solver = solver or SmtSolver()
        self._limits = limits
        self._cache_dir = cache_dir
        self._incremental = incremental
        if telemetry:
            obs.enable()

    def _scoped_store(self):
        """Context manager activating this pipeline's store, if any.

        The binding is per context, so a pipeline on a serve worker
        thread never sees a concurrent request's store.
        """
        from contextlib import nullcontext

        from .cache import open_store, use_store

        if self._cache_dir is None:
            return nullcontext()
        return use_store(open_store(self._cache_dir))

    # ------------------------------------------------------------------
    def analyze(self, source: str) -> AnalysisOutcome:
        """Parse, annotate, analyze and pre-classify a program."""
        with obs.capture() as cap, obs.span("api.analyze"):
            program = parse_program(source)
            if self._auto_annotate:
                program = annotate_program(program)
            analysis = analyze_program(program)
            proves = self._solver.entails(analysis.invariants,
                                          analysis.success)
            refutes = self._solver.entails(analysis.invariants,
                                           neg(analysis.success))
            if proves != refutes:
                verdict = (InitialVerdict.VERIFIED if proves
                           else InitialVerdict.REFUTED)
            else:
                # neither, or both: an inconsistent I entails everything
                verdict = InitialVerdict.UNCERTAIN
        return AnalysisOutcome(program, analysis, verdict,
                               telemetry=cap.snapshot)

    def diagnose(self, source: str, oracle: Oracle) -> DiagnosisResult:
        """The full pipeline: analysis plus the Figure 6 loop.

        A pipeline constructed with ``limits=`` governs the diagnosis
        loop: running out yields the ``RESOURCE_EXHAUSTED`` verdict
        (``UNKNOWN_RESOURCE`` in the unified vocabulary), not an
        exception.
        """
        outcome = self.analyze(source)
        with self._scoped_store():
            return diagnose_error(outcome.analysis, oracle, self._config,
                                  limits=self._limits)

    def triage(self, names: list[str] | None = None, *,
               jobs: int | None = None,
               limits: Limits | None = None,
               cache_dir: str | None = None,
               incremental: bool | None = None,
               workers: list[str] | None = None,
               transport=None) -> BatchResult:
        """Batch-triage benchmark reports (all of Figure 7 by default).

        Fans out over ``jobs`` worker processes (CPU count by default)
        with per-report resource governance, worker recovery and
        graceful degradation to serial execution; see
        :mod:`repro.batch`.  ``limits`` overrides the pipeline-level
        :class:`~repro.limits.Limits` for this call; ``cache_dir`` and
        ``incremental`` likewise override the pipeline-level cache
        settings.

        ``workers`` fans the batch out over running ``repro serve``
        instances instead of local processes; ``transport`` accepts any
        pre-built :mod:`repro.sched` transport outright (the scheduler
        core — retry, quarantine, grace windows, rebuild — is identical
        across all backends).
        """
        return triage_many(names, jobs=jobs,
                           config=self._config,
                           telemetry=obs.is_enabled(),
                           limits=limits if limits is not None
                           else self._limits,
                           cache_dir=cache_dir if cache_dir is not None
                           else self._cache_dir,
                           incremental=self._incremental
                           if incremental is None else incremental,
                           workers=workers,
                           transport=transport)

    #: Transport-explicit alias, mirroring :func:`repro.batch.triage_many`.
    triage_many = triage

    def repair(self, name_or_source: str, *,
               max_patches: int | None = None,
               oracle: Oracle | None = None) -> "RepairResult":
        """Triage a report and synthesize ranked, verified patches.

        ``name_or_source`` is a Figure 7 benchmark name or raw program
        text.  The report is triaged first (benchmarks under their
        ground-truth oracle, ad-hoc sources under the sampling oracle —
        or ``oracle`` when given); a real bug gets no patches (fixing
        genuine bugs is the developer's job, not abduction's), a clean
        report needs none, and anything else goes through
        :func:`repro.repair.synthesize_repairs`: the abduced Γ and the
        session's learned facts are placed as ``@assume``/``@post``/
        guard edits, every candidate re-verified by re-running the full
        front end on the patched program (Lemma 1 discharge), rejected
        when it would make ``I`` inconsistent, and ranked by the
        paper's cost function.  ``result.exit_status`` follows the
        documented contract: 0 = verified patch found (or already
        clean), 1 = real bug / no patch, 3 = degraded.
        """
        from .repair import RepairResult, synthesize_repairs

        try:
            bench = benchmark_by_name(name_or_source)
        except KeyError:
            bench = None
        from .suite import load_source

        source = load_source(bench) if bench is not None \
            else name_or_source
        with obs.capture() as cap, obs.span("api.repair"), \
                self._scoped_store():
            outcome = self.analyze(source)
            analysis = outcome.analysis
            program = outcome.program
            session = None
            if outcome.verdict is InitialVerdict.VERIFIED:
                result = RepairResult(
                    program=program.name,
                    verdict=TriageVerdict.FALSE_ALARM,
                    already_clean=True,
                    note="the report already discharges; no patch "
                         "needed",
                )
            elif outcome.verdict is InitialVerdict.REFUTED:
                result = RepairResult(
                    program=program.name,
                    verdict=TriageVerdict.REAL_BUG,
                    note="the analysis refutes the success condition "
                         "(Lemma 2): fix the program, not the report",
                )
            else:
                if oracle is None:
                    if bench is not None:
                        oracle = ExhaustiveOracle(
                            program, analysis,
                            radius=bench.oracle_radius)
                    else:
                        oracle = SamplingOracle(program, analysis)
                try:
                    session = diagnose_error(analysis, oracle,
                                             self._config,
                                             limits=self._limits)
                except ResourceExhausted as exc:
                    session = None
                    result = RepairResult(
                        program=program.name,
                        verdict=TriageVerdict.UNKNOWN_RESOURCE,
                        note=f"resource limit hit in stage "
                             f"{exc.stage} ({exc.kind}) before "
                             "repair could start",
                    )
                    verdict = None
                else:
                    verdict = session.triage_verdict
                if verdict is None:
                    pass  # degraded result already built above
                elif verdict is TriageVerdict.REAL_BUG:
                    result = RepairResult(
                        program=program.name, verdict=verdict,
                        num_queries=session.num_queries,
                        note="diagnosis validated the report as a "
                             "real bug: no patch is synthesized",
                    )
                elif verdict is TriageVerdict.UNKNOWN_RESOURCE:
                    result = RepairResult(
                        program=program.name, verdict=verdict,
                        num_queries=session.num_queries,
                        note="diagnosis ran out of budget before "
                             "repair could start",
                    )
                else:
                    patches = synthesize_repairs(
                        program, analysis,
                        config=self._config, solver=self._solver,
                        session=session, max_patches=max_patches,
                    )
                    result = RepairResult(
                        program=program.name, verdict=verdict,
                        patches=tuple(patches),
                        num_queries=session.num_queries,
                    )
        result.telemetry = cap.snapshot
        if session is not None and session.cache is not None:
            result.cache = session.cache
        return result

    def user_study(self, *, seed: int = 2012, num_recruited: int = 56,
                   benchmarks: tuple[Benchmark, ...] | None = None,
                   jobs: int | None = 1) -> StudyResult:
        """Regenerate the Figure 7 user study (see repro.userstudy)."""
        kwargs: dict = {
            "seed": seed,
            "num_recruited": num_recruited,
            "engine_config": self._config,
            "jobs": jobs,
        }
        if benchmarks is not None:
            kwargs["benchmarks"] = benchmarks
        return _run_user_study(**kwargs)


# ---------------------------------------------------------------------------
# benchmark helpers (stable, not deprecated)
# ---------------------------------------------------------------------------

def load_benchmark(name: str) -> tuple[Benchmark, Program, AnalysisResult]:
    """Load a Figure 7 benchmark with its analysis."""
    bench = benchmark_by_name(name)
    program, analysis = load_analysis(bench)
    return bench, program, analysis


def ground_truth_oracle(name: str) -> tuple[AnalysisResult, Oracle]:
    """A benchmark's analysis with its exhaustive ground-truth oracle."""
    bench, program, analysis = load_benchmark(name)
    return analysis, ExhaustiveOracle(program, analysis,
                                      radius=bench.oracle_radius)


def dynamic_oracle(name: str, *, samples: int = 400) -> tuple[
        AnalysisResult, Oracle]:
    """A benchmark's analysis with the sampling (random-testing) oracle —
    the Section 8 future-work mode that auto-answers witness queries."""
    bench, program, analysis = load_benchmark(name)
    return analysis, SamplingOracle(program, analysis, samples=samples)


def run_user_study(*, seed: int = 2012, num_recruited: int = 56,
                   benchmarks: tuple[Benchmark, ...] | None = None,
                   engine_config: EngineConfig | None = None,
                   jobs: int | None = 1) -> StudyResult:
    """Regenerate the Figure 7 user study (see repro.userstudy).

    Keyword-only with an explicit signature so a mistyped parameter
    fails loudly instead of being swallowed by a ``**kwargs`` sink.
    """
    kwargs: dict = {
        "seed": seed,
        "num_recruited": num_recruited,
        "engine_config": engine_config,
        "jobs": jobs,
    }
    if benchmarks is not None:
        kwargs["benchmarks"] = benchmarks
    return _run_user_study(**kwargs)
