"""The full diagnosis algorithm (Figure 6) with Section 5's extensions.

Given the analysis judgment ``(I, phi)`` and an oracle (normally a
human), the engine alternates:

1. try to close the report outright — ``I |= phi`` discharges it
   (Lemma 1), and a learned witness ``psi`` with ``UNSAT(I ∧ psi ∧ phi)``
   validates it (Lemma 2 relativized to learned facts);
2. otherwise compute a weakest minimum proof obligation and failure
   witness by abduction, and ask whichever is cheaper;
3. fold the answer back in: "yes" closes the report; "no" still teaches
   the engine something (a refuted invariant is a witness, a refuted
   witness is an invariant); "I don't know" (Section 5) records potential
   invariants/witnesses that steer later MSAs away from unanswerable
   queries.

Queries are decomposed per Section 4.4 — invariant queries split into
CNF clauses, witness queries into DNF clauses — and the engine learns
from every subquery even when the enclosing query fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .. import limits as _limits_mod
from .. import obs
from ..obs import provenance as prov
from ..analysis import AnalysisResult
from ..limits import Limits, ResourceExhausted
from ..logic.digest import digest
from ..logic.formulas import Formula, conj, neg
from ..schema import TriageVerdict, dump_json, envelope
from .abduction import Abducer
from .oracles import Oracle
from .queries import Answer, Query, QueryRenderer
from .stages import abduce_stage, choose_stage, decompose_stage, \
    entail_stage


class Verdict(Enum):
    DISCHARGED = "discharged"      # proven error-free: false alarm
    VALIDATED = "validated"        # proven buggy: real bug
    UNRESOLVED = "unresolved"
    RESOURCE_EXHAUSTED = "resource exhausted"  # a governed limit ran out


@dataclass(frozen=True)
class Interaction:
    query: Query
    answer: Answer


@dataclass
class DiagnosisResult:
    """Outcome of a diagnosis session."""

    verdict: Verdict
    interactions: list[Interaction]
    rounds: int
    invariants: Formula | None     # final I; None if the front end ran out
    witnesses: list[Formula]       # learned witnesses W
    analysis: AnalysisResult | None  # None if the front end ran out
    elapsed_seconds: float = 0.0
    immediate: bool = False        # closed with zero queries
    telemetry: dict | None = None  # obs snapshot delta, when enabled
    limits: dict | None = None     # rendering of the governing Limits
    resource_spend: dict | None = None   # per-stage spend (governed runs)
    exhausted_stage: str | None = None   # stage whose checkpoint fired
    exhausted_kind: str | None = None    # steps | nodes | deadline | ...
    cache: dict | None = None            # store provenance, when active

    @property
    def classification(self) -> str:
        return self.triage_verdict.value

    @property
    def triage_verdict(self) -> TriageVerdict:
        """The unified result vocabulary (see :mod:`repro.schema`)."""
        if self.verdict is Verdict.DISCHARGED:
            return TriageVerdict.FALSE_ALARM
        if self.verdict is Verdict.VALIDATED:
            return TriageVerdict.REAL_BUG
        if self.verdict is Verdict.RESOURCE_EXHAUSTED:
            return TriageVerdict.UNKNOWN_RESOURCE
        return TriageVerdict.UNKNOWN

    @property
    def num_queries(self) -> int:
        return len(self.interactions)

    @property
    def decided_by_analysis(self) -> bool:
        """Round 0's Lemma 1/2 check closed the report: the analysis
        decided it without abduction or a query."""
        return self.rounds == 0 and self.verdict in (Verdict.DISCHARGED,
                                                     Verdict.VALIDATED)

    def to_dict(self) -> dict:
        """The stable ``repro.result`` payload (see docs/API.md)."""
        return envelope(
            "diagnosis",
            self.triage_verdict,
            program=self.analysis.program.name
            if self.analysis is not None else None,
            rounds=self.rounds,
            num_queries=self.num_queries,
            elapsed_seconds=self.elapsed_seconds,
            immediate=self.immediate,
            interactions=[
                {
                    "kind": i.query.kind,
                    "text": i.query.text,
                    "answer": i.answer.value,
                }
                for i in self.interactions
            ],
            invariants=str(self.invariants)
            if self.invariants is not None else None,
            witnesses=[str(w) for w in self.witnesses],
            telemetry=self.telemetry,
            limits=self.limits,
            resource_spend=self.resource_spend,
            exhausted_stage=self.exhausted_stage,
            exhausted_kind=self.exhausted_kind,
            cache=self.cache,
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return dump_json(self.to_dict(), indent=indent)


@dataclass
class EngineConfig:
    """Knobs exposed for the ablation experiments (A1–A4)."""

    cost_model: str = "paper"          # 'paper' | 'uniform'
    msa_strategy: str = "branch_bound"  # 'branch_bound' | 'subsets'
    use_simplification: bool = True
    use_abduction: bool = True          # False: trivial Gamma = phi (A2)
    max_rounds: int = 25


class DiagnosisEngine:
    """Drives the Figure 6 interaction loop."""

    def __init__(self, analysis: AnalysisResult, oracle: Oracle,
                 config: EngineConfig | None = None,
                 limits: Limits | None = None):
        self._analysis = analysis
        self._oracle = oracle
        self._config = config or EngineConfig()
        self._limits = limits
        from ..smt import SmtSolver

        self._abducer = Abducer(
            msa_strategy=self._config.msa_strategy,
            use_simplification=self._config.use_simplification,
            solver=SmtSolver(),
        )
        self._renderer = QueryRenderer(analysis)
        self._asked: dict[tuple[str, Formula], Answer] = {}

    # ------------------------------------------------------------------
    def run(self) -> DiagnosisResult:
        from ..cache import counting, current_store, use_store

        store = current_store()
        # The stages persist whole artifacts to ``store``; the solver
        # checks beneath them see no store, since a warm run replays
        # those stages and would never read their verdicts back.
        with use_store(None), counting() as ops, obs.capture() as cap, \
                obs.span("engine.session"):
            if self._limits is not None:
                with _limits_mod.governed(self._limits) as governor:
                    result = self._run(store)
                result.limits = self._limits.to_dict()
            else:
                # an ambient governor (e.g. installed by the batch
                # driver around the whole report) still attributes spend
                governor = _limits_mod.current_governor()
                result = self._run(store)
            if governor is not None:
                result.resource_spend = governor.spend_snapshot()
        if cap.snapshot is not None:
            result.telemetry = cap.snapshot
        if store is not None:
            result.cache = {
                "store": str(store.root),
                "invariants_digest": digest(self._analysis.invariants),
                "success_digest": digest(self._analysis.success),
                **{key: ops[key] for key in ("hits", "misses", "puts")},
            }
        return result

    def _run(self, store) -> DiagnosisResult:
        start = time.perf_counter()
        invariants = self._analysis.invariants
        success = self._analysis.success
        solver = self._abducer.solver

        witnesses: list[Formula] = []
        potential_invariants: list[Formula] = []
        potential_witnesses: list[Formula] = []
        interactions: list[Interaction] = []

        def finish(verdict: Verdict, rounds: int,
                   reason: str = "") -> DiagnosisResult:
            if prov.is_enabled():
                prov.record(
                    "verdict", verdict=verdict.value, rounds=rounds,
                    queries=len(interactions), reason=reason,
                )
            return DiagnosisResult(
                verdict=verdict,
                interactions=interactions,
                rounds=rounds,
                invariants=invariants,
                witnesses=witnesses,
                analysis=self._analysis,
                elapsed_seconds=time.perf_counter() - start,
                immediate=not interactions,
            )

        round_index = 0
        try:
            for round_index in range(self._config.max_rounds):
                obs.inc("engine.rounds")
                # entail stage: consistency, Lemma 1, Lemma 2, and the
                # learned-witness closure — possibly replayed from the
                # persistent store (see repro.diagnosis.stages).
                entail = entail_stage(
                    solver, invariants, success, tuple(witnesses),
                    round_index=round_index, store=store,
                )
                if not entail.consistent:
                    return finish(Verdict.UNRESOLVED, round_index,
                                  reason="knowledge base inconsistent")
                if entail.discharged:
                    return finish(Verdict.DISCHARGED, round_index,
                                  reason="I entails the success condition"
                                         " (Lemma 1)")
                if entail.validated:
                    return finish(Verdict.VALIDATED, round_index,
                                  reason="I contradicts the success"
                                         " condition (Lemma 2)")
                if entail.witness_index is not None:
                    confirmed = witnesses[entail.witness_index]
                    return finish(
                        Verdict.VALIDATED, round_index,
                        reason="learned witness "
                               f"{prov.fmla(confirmed)} rules out"
                               " success (Lemma 2)")

                with obs.span("engine.abduce", round=round_index):
                    gamma, upsilon = abduce_stage(
                        self._abducer, self._config, invariants, success,
                        tuple(witnesses),
                        tuple(potential_invariants),
                        tuple(potential_witnesses),
                        store=store,
                    )
                if gamma is not None:
                    obs.gauge("engine.obligation_cost", gamma.cost)
                if upsilon is not None:
                    obs.gauge("engine.witness_cost", upsilon.cost)
                if gamma is None and upsilon is None:
                    return finish(Verdict.UNRESOLVED, round_index,
                                  reason="no abducible proof obligation"
                                         " or failure witness")

                ask_invariant = choose_stage(
                    gamma, upsilon, round_index=round_index
                )

                if ask_invariant:
                    assert gamma is not None
                    yes_clauses = self._ask_invariant(
                        gamma.formula, interactions, witnesses,
                        potential_invariants, potential_witnesses,
                        store=store,
                    )
                    # every affirmed clause is a learned invariant, even
                    # when the query as a whole was not (Section 4.4)
                    invariants = conj(invariants, *yes_clauses)
                else:
                    assert upsilon is not None
                    validated, refuted = self._ask_witness(
                        upsilon.formula, interactions, witnesses,
                        potential_invariants, potential_witnesses,
                        store=store,
                    )
                    if validated:
                        return finish(Verdict.VALIDATED, round_index + 1,
                                      reason="oracle affirmed a failure"
                                             " witness clause")
                    # a refuted witness clause is a learned invariant
                    invariants = conj(invariants, *refuted)
        except ResourceExhausted as exc:
            # A governed limit ran out mid-round.  This is a *verdict*,
            # not an error: the report stays open, the exception says
            # which solver stage's checkpoint noticed and why.
            obs.inc("engine.resource_exhausted")
            obs.inc(f"engine.resource_exhausted.{exc.stage}")
            result = finish(Verdict.RESOURCE_EXHAUSTED, round_index,
                            reason=f"{exc.kind} limit hit in {exc.stage}")
            result.exhausted_stage = exc.stage
            result.exhausted_kind = exc.kind
            return result

        return finish(Verdict.UNRESOLVED, self._config.max_rounds,
                      reason="round budget exhausted")

    # ------------------------------------------------------------------
    def _ask(self, query: Query) -> Answer:
        key = (query.kind, query.formula)
        if key in self._asked:
            obs.inc("engine.queries.deduplicated")
            answer = self._asked[key]
            if prov.is_enabled():
                prov.record("query", query_kind=query.kind,
                            text=query.text, answer=answer.value,
                            cached=True)
            return answer
        obs.inc("engine.queries")
        obs.inc(f"engine.queries.{query.kind}")
        answer = self._oracle.answer(query)
        self._asked[key] = answer
        if prov.is_enabled():
            prov.record("query", query_kind=query.kind, text=query.text,
                        answer=answer.value)
        return answer

    def _ask_invariant(
        self,
        gamma: Formula,
        interactions: list[Interaction],
        witnesses: list[Formula],
        potential_invariants: list[Formula],
        potential_witnesses: list[Formula],
        store=None,
    ) -> list[Formula]:
        """Ask the CNF clauses of an invariant query.

        Returns the clauses affirmed by the oracle (learned invariants).
        Refuted clauses are appended to ``witnesses``; unanswerable ones
        are recorded as potential invariants/witnesses (Section 5).
        """
        clauses = decompose_stage("invariant", gamma, store=store)
        yes_clauses: list[Formula] = []
        for clause in clauses:
            query = self._renderer.invariant_query(clause)
            answer = self._ask(query)
            interactions.append(Interaction(query, answer))
            if answer is Answer.YES:
                yes_clauses.append(clause)
            elif answer is Answer.NO:
                witnesses.append(neg(clause))
            else:
                potential_invariants.append(clause)
                potential_witnesses.append(neg(clause))
        return yes_clauses

    def _ask_witness(
        self,
        upsilon: Formula,
        interactions: list[Interaction],
        witnesses: list[Formula],
        potential_invariants: list[Formula],
        potential_witnesses: list[Formula],
        store=None,
    ) -> tuple[bool, list[Formula]]:
        """Ask the DNF clauses of a witness query.

        Returns ``(validated, refuted_negations)``: validation succeeds
        the moment a clause is affirmed; negations of refuted clauses are
        learned invariants.
        """
        clauses = decompose_stage("witness", upsilon, store=store)
        refuted: list[Formula] = []
        for clause in clauses:
            query = self._renderer.witness_query(clause)
            answer = self._ask(query)
            interactions.append(Interaction(query, answer))
            if answer is Answer.YES:
                witnesses.append(clause)
                return True, refuted
            if answer is Answer.NO:
                refuted.append(neg(clause))
            else:
                potential_witnesses.append(clause)
                potential_invariants.append(neg(clause))
        return False, refuted


def diagnose_error(analysis: AnalysisResult, oracle: Oracle,
                   config: EngineConfig | None = None,
                   limits: Limits | None = None) -> DiagnosisResult:
    """Run the Figure 6 algorithm on an analysis result."""
    return DiagnosisEngine(analysis, oracle, config, limits=limits).run()
