"""The simulated user study (Section 6 / Figure 7).

Protocol, mirroring the paper:

* 56 participants are "recruited"; each answers the three diagnostic
  screening problems, and participants who miss any are excluded
  (the paper ended with 49 valid participants);
* for every one of the 11 benchmark problems, each participant is
  randomly assigned to classify it either manually or with the
  query-guided technique, so each problem gets ~half the participants
  per condition;
* the guided condition drives the *real* Figure 6 engine: the
  participant model answers each query the engine actually asks (with
  ground truth from the exhaustive oracle and a skill-dependent error
  model), and the participant's classification is the engine's verdict.

Because the engine is deterministic given the answer sequence, the
interaction is memoized as a lazily-built decision tree per problem —
participants who answer identically share one engine run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from ..analysis import AnalysisResult
from ..diagnosis import (
    Answer,
    DiagnosisResult,
    EngineConfig,
    ExhaustiveOracle,
    Oracle,
    Query,
    diagnose_error,
)
from ..suite import BENCHMARKS, DIAGNOSTICS, Benchmark, load_analysis
from .participants import (
    SESSION_OVERHEAD,
    Participant,
    answer_query,
    classify_manually,
)


class _NeedAnswer(Exception):
    """Internal control flow: the engine asked a query we have no answer
    for yet; carries the query so the caller can obtain one."""

    def __init__(self, query: Query):
        self.query = query


class _ReplayOracle(Oracle):
    """Feeds a fixed answer prefix to the engine, then aborts."""

    def __init__(self, answers: Sequence[Answer]):
        self._answers = list(answers)
        self._index = 0

    def answer(self, query: Query) -> Answer:
        if self._index < len(self._answers):
            result = self._answers[self._index]
            self._index += 1
            return result
        raise _NeedAnswer(query)


@dataclass
class DiagnosisTree:
    """Memoized interaction tree for one benchmark problem.

    ``resolve(answers)`` returns either ``("ask", query)`` — the next
    query the engine poses after the given answer prefix — or
    ``("done", result)``.
    """

    analysis: AnalysisResult
    config: EngineConfig = field(default_factory=EngineConfig)
    _cache: dict[tuple[Answer, ...], tuple[str, object]] = field(
        default_factory=dict
    )

    def resolve(self, answers: tuple[Answer, ...]) -> tuple[str, object]:
        if answers in self._cache:
            return self._cache[answers]
        try:
            result = diagnose_error(
                self.analysis, _ReplayOracle(answers), self.config
            )
        except _NeedAnswer as need:
            outcome: tuple[str, object] = ("ask", need.query)
        else:
            outcome = ("done", result)
        self._cache[answers] = outcome
        return outcome


@dataclass
class SessionOutcome:
    """One participant classifying one problem under one condition."""

    participant: int
    problem_id: int
    condition: str            # 'manual' | 'technique'
    answer: str               # 'false alarm' | 'real bug' | 'unknown'
    correct: bool
    seconds: float
    queries_answered: int = 0


@dataclass
class ProblemCell:
    """One condition's aggregate for one problem (half a Figure 7 row)."""

    pct_correct: float
    pct_wrong: float
    pct_unknown: float
    avg_seconds: float
    count: int


@dataclass
class StudyResult:
    """Everything the Figure 7 table and the t-tests need."""

    sessions: list[SessionOutcome]
    participants: list[Participant]
    excluded: int
    benchmarks: tuple[Benchmark, ...]

    def cell(self, problem_id: int, condition: str) -> ProblemCell:
        rows = [
            s for s in self.sessions
            if s.problem_id == problem_id and s.condition == condition
        ]
        n = len(rows)
        if n == 0:
            return ProblemCell(0.0, 0.0, 0.0, 0.0, 0)
        correct = sum(1 for s in rows if s.correct)
        unknown = sum(1 for s in rows if s.answer == "unknown")
        wrong = n - correct - unknown
        return ProblemCell(
            pct_correct=100.0 * correct / n,
            pct_wrong=100.0 * wrong / n,
            pct_unknown=100.0 * unknown / n,
            avg_seconds=sum(s.seconds for s in rows) / n,
            count=n,
        )

    def average_cell(self, condition: str) -> ProblemCell:
        cells = [
            self.cell(b.problem_id, condition) for b in self.benchmarks
        ]
        n = len(cells)
        return ProblemCell(
            pct_correct=sum(c.pct_correct for c in cells) / n,
            pct_wrong=sum(c.pct_wrong for c in cells) / n,
            pct_unknown=sum(c.pct_unknown for c in cells) / n,
            avg_seconds=sum(c.avg_seconds for c in cells) / n,
            count=sum(c.count for c in cells),
        )

    def per_participant_accuracy(self, condition: str) -> list[float]:
        """Per-participant fraction correct (for the t-tests)."""
        by_participant: dict[int, list[bool]] = {}
        for s in self.sessions:
            if s.condition == condition:
                by_participant.setdefault(s.participant, []).append(
                    s.correct
                )
        return [
            sum(flags) / len(flags)
            for flags in by_participant.values()
            if flags
        ]

    def times(self, condition: str) -> list[float]:
        return [
            s.seconds for s in self.sessions if s.condition == condition
        ]


class UserStudy:
    """Runs the full simulated study."""

    def __init__(
        self,
        *,
        num_recruited: int = 56,
        seed: int = 2012,
        benchmarks: tuple[Benchmark, ...] = BENCHMARKS,
        engine_config: EngineConfig | None = None,
    ):
        self._num_recruited = num_recruited
        self._seed = seed
        self._benchmarks = benchmarks
        self._config = engine_config or EngineConfig()

    # ------------------------------------------------------------------
    def run(self) -> StudyResult:
        rng = random.Random(self._seed)
        recruited = [
            Participant.sample(i, rng) for i in range(self._num_recruited)
        ]
        valid = [p for p in recruited if self._passes_screening(p, rng)]
        excluded = len(recruited) - len(valid)

        sessions: list[SessionOutcome] = []
        for bench in self._benchmarks:
            program, analysis = load_analysis(bench)
            truth = ExhaustiveOracle(
                program, analysis, radius=bench.oracle_radius
            )
            tree = DiagnosisTree(analysis, self._config)
            for participant in valid:
                condition = rng.choice(["manual", "technique"])
                if condition == "manual":
                    sessions.append(
                        self._manual_session(participant, bench, rng)
                    )
                else:
                    sessions.append(
                        self._guided_session(
                            participant, bench, tree, truth, rng
                        )
                    )
        return StudyResult(
            sessions=sessions,
            participants=valid,
            excluded=excluded,
            benchmarks=self._benchmarks,
        )

    # ------------------------------------------------------------------
    def _passes_screening(self, participant: Participant,
                          rng: random.Random) -> bool:
        """The three diagnostic problems: trivial, so errors are rare and
        concentrated among low-skill participants (as intended by the
        paper's screening)."""
        for _bench in DIAGNOSTICS:
            p_correct = min(0.995, 0.9 + 0.15 * participant.skill)
            if rng.random() > p_correct:
                return False
        return True

    def _manual_session(self, participant: Participant, bench: Benchmark,
                        rng: random.Random) -> SessionOutcome:
        answer, seconds = classify_manually(participant, bench, rng)
        return SessionOutcome(
            participant=participant.ident,
            problem_id=bench.problem_id,
            condition="manual",
            answer=answer,
            correct=answer == bench.classification,
            seconds=seconds,
        )

    def _guided_session(
        self,
        participant: Participant,
        bench: Benchmark,
        tree: DiagnosisTree,
        truth: Oracle,
        rng: random.Random,
    ) -> SessionOutcome:
        answers: tuple[Answer, ...] = ()
        seconds = SESSION_OVERHEAD * (1.2 - 0.4 * participant.skill)
        queries = 0
        while True:
            kind, payload = tree.resolve(answers)
            if kind == "done":
                result = payload
                assert isinstance(result, DiagnosisResult)
                answer = result.classification
                return SessionOutcome(
                    participant=participant.ident,
                    problem_id=bench.problem_id,
                    condition="technique",
                    answer=answer,
                    correct=answer == bench.classification,
                    seconds=seconds,
                    queries_answered=queries,
                )
            query = payload
            assert isinstance(query, Query)
            true_answer = truth.answer(query)
            response, t = answer_query(participant, query, true_answer, rng)
            seconds += t
            queries += 1
            answers = answers + (response,)


def run_user_study(*, num_recruited: int = 56, seed: int = 2012,
                   benchmarks: tuple[Benchmark, ...] = BENCHMARKS,
                   engine_config: EngineConfig | None = None
                   ) -> StudyResult:
    """Convenience wrapper: run the full simulated study.

    The signature is explicit (no ``**kwargs`` passthrough) so a typo
    like ``n_recruited=...`` raises ``TypeError`` instead of being
    silently ignored.
    """
    return UserStudy(
        num_recruited=num_recruited,
        seed=seed,
        benchmarks=benchmarks,
        engine_config=engine_config,
    ).run()
