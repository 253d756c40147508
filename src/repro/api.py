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
from .analysis import AnalysisResult
from .batch import BatchResult, triage_many
from .batch.outcomes import ReportRun, run_report
from .cache import open_store
from .diagnosis import (
    DiagnosisResult,
    EngineConfig,
    ExhaustiveOracle,
    Oracle,
    SamplingOracle,
    Verdict,
)
from .diagnosis.stages import entail_stage
from .lang import Program
from .limits import Limits
from .schema import TriageVerdict, dump_json, envelope
from .smt import SmtSolver
from .suite import Benchmark, benchmark_by_name, front_end, load_analysis
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


def report_envelope(result: DiagnosisResult) -> dict:
    """The envelope of an ad-hoc report, shared by ``repro diagnose
    --json`` and ``repro serve``: ``analysis`` when Lemma 1 or 2 decided
    the report alone, ``diagnosis`` otherwise."""
    if not result.decided_by_analysis:
        return result.to_dict()
    verdict = InitialVerdict.VERIFIED \
        if result.verdict is Verdict.DISCHARGED else InitialVerdict.REFUTED
    return AnalysisOutcome(result.analysis.program, result.analysis,
                           verdict, telemetry=result.telemetry).to_dict()


class Pipeline:
    """The one front door to the whole reproduction.

    Bundles the configuration every entry point used to take ad hoc —
    annotation, engine knobs, limits, the store — and exposes the
    workloads as methods.  ``diagnose``, ``repair`` and ``triage`` each
    run every report through :func:`repro.batch.outcomes.run_report`,
    so ``limits`` governs a whole report: front end, diagnosis loop and
    repair synthesis.  While the process-wide obs instrumentation is on
    (:func:`repro.obs.enable`), every result embeds its telemetry
    snapshot.

    ``cache_dir`` opens the persistent content-addressed store there
    (:mod:`repro.cache`), and every report this pipeline runs passes it
    to the front end, the engine and repair synthesis: the analyzer's
    guard verdicts, the diagnosis stage artifacts and patch lists are
    reused across runs and processes, and results carry a ``cache``
    provenance block.  ``incremental=True`` (triage only) additionally
    serves whole reports whose ``(I, phi)`` judgment digest is
    unchanged from recorded verdicts.
    """

    def __init__(self, *, auto_annotate: bool = True,
                 config: EngineConfig | None = None,
                 limits: Limits | None = None,
                 cache_dir: str | None = None,
                 incremental: bool = False):
        if incremental and cache_dir is None:
            raise ValueError("incremental re-triage needs cache_dir")
        self._auto_annotate = auto_annotate
        self._config = config
        self._limits = limits
        self._cache_dir = cache_dir
        self._incremental = incremental

    def _run(self, source: str | None, **kwargs) -> ReportRun:
        """One report through the runner, under this pipeline's
        configuration, limits and store; errors other than running out
        of a limit propagate."""
        run = run_report(
            source, config=self._config, limits=self._limits,
            store=open_store(self._cache_dir)
            if self._cache_dir is not None else None,
            auto_annotate=self._auto_annotate, **kwargs)
        if run.error is not None:
            raise run.error
        return run

    # ------------------------------------------------------------------
    def analyze(self, source: str) -> AnalysisOutcome:
        """Parse, annotate, analyze and pre-classify a program.

        The engine's entail stage decides the verdict, as it does in
        round 0 of every diagnosis: consistent and discharged (Lemma 1)
        is ``VERIFIED``, consistent and validated (Lemma 2) is
        ``REFUTED``, and anything else — including an inconsistent
        ``I``, which entails everything — is ``UNCERTAIN``.
        """
        with obs.capture() as cap, obs.span("api.analyze"):
            program, analysis = front_end(
                source, auto_annotate=self._auto_annotate)
            entail = entail_stage(SmtSolver(), analysis.invariants,
                                  analysis.success)
        if entail.discharged:
            verdict = InitialVerdict.VERIFIED
        elif entail.validated:
            verdict = InitialVerdict.REFUTED
        else:
            verdict = InitialVerdict.UNCERTAIN
        return AnalysisOutcome(program, analysis, verdict,
                               telemetry=cap.snapshot)

    def diagnose(self, source: str,
                 oracle: Oracle | None = None) -> DiagnosisResult:
        """The full pipeline: the front end, then the Figure 6 loop,
        whose round 0 is the Lemma 1/2 check.

        ``oracle`` defaults to the sampling oracle (random testing) over
        the analyzed program.  A pipeline constructed with ``limits=``
        governs the whole report: running out anywhere yields the
        ``RESOURCE_EXHAUSTED`` verdict (``UNKNOWN_RESOURCE`` in the
        unified vocabulary), not an exception.  When the front end ran
        out, the result has no ``analysis`` and no ``invariants``.
        """
        return self._run(source, oracle=oracle).diagnosis

    def triage(self, names: list[str] | None = None, *,
               jobs: int | None = None,
               limits: Limits | None = None,
               cache_dir: str | None = None,
               incremental: bool | None = None,
               workers: list[str] | None = None) -> BatchResult:
        """Batch-triage benchmark reports (all of Figure 7 by default).

        Fans out over ``jobs`` worker processes (CPU count by default)
        with per-report resource governance, worker recovery and
        graceful degradation to serial execution; see
        :mod:`repro.batch`.  ``limits`` overrides the pipeline-level
        :class:`~repro.limits.Limits` for this call; ``cache_dir`` and
        ``incremental`` likewise override the pipeline-level cache
        settings.

        ``workers`` fans the batch out over running ``repro serve``
        instances instead of local processes (the scheduler core —
        retry, quarantine, grace windows, rebuild — is identical across
        all backends).
        """
        return triage_many(names, jobs=jobs,
                           config=self._config,
                           limits=limits if limits is not None
                           else self._limits,
                           cache_dir=cache_dir if cache_dir is not None
                           else self._cache_dir,
                           incremental=self._incremental
                           if incremental is None else incremental,
                           workers=workers)

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
        ``max_patches`` keeps at most that many ranked patches (at
        least one).
        """
        from .repair import RepairResult

        if max_patches is not None and max_patches < 1:
            raise ValueError(
                f"max_patches must be at least 1, got {max_patches}")
        try:
            name, source = benchmark_by_name(name_or_source).name, None
        except KeyError:
            name, source = None, name_or_source
        return RepairResult.from_run(self._run(
            source, name=name, oracle=oracle, repair=True,
            max_patches=max_patches))

    def user_study(self, *, seed: int = 2012, num_recruited: int = 56,
                   benchmarks: tuple[Benchmark, ...] | None = None
                   ) -> StudyResult:
        """Regenerate the Figure 7 user study (see repro.userstudy)."""
        return run_user_study(seed=seed, num_recruited=num_recruited,
                              benchmarks=benchmarks,
                              engine_config=self._config)


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
                   engine_config: EngineConfig | None = None
                   ) -> StudyResult:
    """Regenerate the Figure 7 user study (see repro.userstudy).

    Keyword-only with an explicit signature so a mistyped parameter
    fails loudly instead of being swallowed by a ``**kwargs`` sink.
    """
    kwargs: dict = {
        "seed": seed,
        "num_recruited": num_recruited,
        "engine_config": engine_config,
    }
    if benchmarks is not None:
        kwargs["benchmarks"] = benchmarks
    return _run_user_study(**kwargs)
