"""Repair synthesis: abduced formulas → ranked, verified patches.

The pipeline (ARGIR's Abduction v2 recipe — minimal premise,
consistency guard, re-check after patch):

1. **Candidates.** The weakest minimum proof obligation Γ for the
   judgment ``(I, φ)`` (via the cached :func:`abduce_stage`), plus —
   when a diagnosis session is available — the conjunction of facts the
   oracle affirmed (every YES invariant clause, every negated NO
   witness clause).  Both satisfy ``I ∧ ψ |= φ``, so a faithful
   placement is a discharge by construction.
2. **Consistency guard.** A candidate with ``UNSAT(I ∧ ψ)`` would
   "repair" the program by making its axioms contradictory; it is
   rejected before any splicing (``repair.rejected.inconsistent``).
   A candidate with ``UNSAT(I ∧ ψ ∧ w)`` for a fact ``w`` the oracle
   showed some execution satisfies (a refuted invariant clause's
   negation, or an affirmed witness clause) is *refuted*: its
   ``@post``/``@assume`` plans would claim a fact that execution
   violates, so they are rejected unspliced
   (``repair.rejected.refuted``); its guard plans are verified as usual
   but rank below every unrefuted verified patch.
3. **Placement.** :func:`repro.repair.candidates.plan_placements` maps
   CNF clauses onto havoc ``@assume``s, loop ``@post``s (Ilinva), or a
   check-site guard.
4. **Verification.** Every plan is spliced, rendered, re-parsed,
   re-annotated and re-analyzed — the byte-identical front end — and
   accepted only if the *patched* judgment discharges outright
   (:func:`entail_stage`: consistent and Lemma 1).  No trust in the
   mapping, only in the re-run.
5. **Ranking.** Verified first, unrefuted before refuted, then the
   paper's cost order: fewest variables, then smallest formula, then
   the more targeted placement.

Synthesis is content-addressed like every other stage: the patch list
is keyed by ``(I, φ, candidate digests, refuting facts, source digest,
config)`` under
the ``repair`` stage, so warm re-runs and the serve coalescing path get
patches without re-verifying.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, replace

from .. import obs
from ..analysis import AnalysisResult
from ..diagnosis.abduction import Abducer, relevant_invariants
from ..diagnosis.queries import Answer
from ..diagnosis.stages import (
    STAGE_VERSION,
    abduce_stage,
    config_fingerprint,
    entail_stage,
)
from ..lang import Program, render_pred, render_program
from ..logic.digest import digest, digest_many, digest_text
from ..logic.formulas import Formula, conj, neg
from ..logic.serialize import formula_from_obj, formula_to_obj
from ..obs import provenance as prov
from ..schema import (
    EXIT_DEGRADED,
    EXIT_OK,
    EXIT_REAL_BUG,
    TriageVerdict,
    dump_json,
    envelope,
)
from ..suite import front_end
from .candidates import Plan, plan_placements
from .splice import apply_edits

__all__ = [
    "REPAIR_VERSION",
    "RepairPatch",
    "RepairResult",
    "learned_facts",
    "refuting_facts",
    "synthesize_repairs",
]

#: Version of the repair artifact format; folded into the cache key so a
#: change to patch generation invalidates recorded patch lists wholesale.
REPAIR_VERSION = "r2"


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EditRecord:
    """Serializable view of one applied edit (see ``docs/API.md``)."""

    kind: str                  # 'assume' | 'post' | 'guard'
    pred: str                  # the inserted predicate, source syntax
    line: int                  # line of the edited statement
    target: str | None = None  # havoc'd variable ('assume')
    label: int | None = None   # loop label ('post')

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "pred": self.pred,
                         "line": self.line}
        if self.target is not None:
            payload["target"] = self.target
        if self.label is not None:
            payload["label"] = self.label
        return payload


@dataclass(frozen=True)
class RepairPatch:
    """One candidate patch, verified or rejected."""

    rank: int
    kind: str                      # 'targeted' | 'guard'
    formula: Formula               # the placed condition ψ
    edits: tuple[EditRecord, ...]
    diff: str                      # unified diff, canonical renderings
    patched_source: str            # full patched program text
    verified: bool
    rejected: str | None  # 'inconsistent' | 'refuted' | 'not-discharged'
    cost: tuple[int, int]          # (variables, formula size)
    refuted: bool = False          # ψ contradicts a refuting fact

    @property
    def gamma_digest(self) -> str:
        return digest(self.formula)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "kind": self.kind,
            "formula": str(self.formula),
            "gamma_digest": self.gamma_digest,
            "cost": {"variables": self.cost[0], "size": self.cost[1]},
            "verified": self.verified,
            **({"rejected": self.rejected} if self.rejected else {}),
            **({"refuted": True} if self.refuted else {}),
            "edits": [e.to_dict() for e in self.edits],
            "diff": self.diff,
            "patched_source": self.patched_source,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return dump_json(self.to_dict(), indent=indent)


@dataclass
class RepairResult:
    """Outcome of ``Pipeline.repair``: the triage verdict plus the
    ranked patch list (the envelope's additive ``repairs`` block)."""

    program: str | None              # None if the front end ran out
    verdict: TriageVerdict
    patches: tuple[RepairPatch, ...] = ()
    already_clean: bool = False
    note: str | None = None
    num_queries: int | None = None   # of the underlying diagnosis
    telemetry: dict | None = None
    cache: dict | None = None

    @property
    def triage_verdict(self) -> TriageVerdict:
        return self.verdict

    @property
    def verified_count(self) -> int:
        return sum(1 for p in self.patches if p.verified)

    @property
    def best(self) -> RepairPatch | None:
        """The rank-1 verified patch, if any."""
        for patch in self.patches:
            if patch.verified:
                return patch
        return None

    @property
    def exit_status(self) -> int:
        """The documented contract: 0 = verified patch found (or the
        report was already clean), 1 = real bug / no patch, 3 =
        degraded."""
        if self.verdict is TriageVerdict.UNKNOWN_RESOURCE:
            return EXIT_DEGRADED
        if self.verdict is TriageVerdict.REAL_BUG:
            return EXIT_REAL_BUG
        if self.already_clean or self.verified_count:
            return EXIT_OK
        return EXIT_REAL_BUG

    def to_dict(self) -> dict:
        """The stable ``repro.result`` payload (see docs/API.md)."""
        return envelope(
            "repair",
            self.verdict,
            program=self.program,
            already_clean=self.already_clean or None,
            verified_patches=self.verified_count,
            repairs=[p.to_dict() for p in self.patches],
            note=self.note,
            num_queries=self.num_queries,
            telemetry=self.telemetry,
            cache=self.cache,
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return dump_json(self.to_dict(), indent=indent)

    @classmethod
    def from_run(cls, run) -> "RepairResult":
        """The repair view of a :func:`repro.batch.outcomes.run_report`
        run made with ``repair=True``: already clean, a real bug, out of
        budget, or the ranked patches."""
        session = run.diagnosis
        result = cls(
            program=run.program.name if run.program is not None else None,
            verdict=session.triage_verdict, telemetry=run.telemetry,
            cache=run.cache,
        )
        if session.decided_by_analysis:
            result.already_clean = \
                result.verdict is TriageVerdict.FALSE_ALARM
            result.note = (
                "the report already discharges; no patch needed"
                if result.already_clean else
                "the analysis refutes the success condition (Lemma 2): "
                "fix the program, not the report")
            return result
        result.num_queries = session.num_queries
        if result.verdict is TriageVerdict.REAL_BUG:
            result.note = ("diagnosis validated the report as a real bug: "
                           "no patch is synthesized")
        elif result.verdict is TriageVerdict.UNKNOWN_RESOURCE:
            result.note = ("diagnosis ran out of budget before repair "
                           "could start")
        elif run.patches is None:
            exc = run.exhausted
            result.verdict = TriageVerdict.UNKNOWN_RESOURCE
            result.note = (f"repair synthesis ran out of budget "
                           f"({exc.kind} limit in stage {exc.stage})")
        else:
            result.patches = tuple(run.patches)
        return result


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------

def learned_facts(session) -> list[Formula]:
    """Every fact a diagnosis session learned from its oracle: affirmed
    invariant clauses and negations of refuted witness clauses."""
    facts: list[Formula] = []
    for interaction in session.interactions:
        if interaction.query.kind == "invariant" \
                and interaction.answer is Answer.YES:
            facts.append(interaction.query.formula)
        elif interaction.query.kind == "witness" \
                and interaction.answer is Answer.NO:
            facts.append(neg(interaction.query.formula))
    return facts


def refuting_facts(session) -> list[Formula]:
    """Every fact a diagnosis session learned holds in *some* execution:
    negations of refuted invariant clauses and affirmed witness
    clauses (the session's learned witnesses)."""
    facts: list[Formula] = []
    for interaction in session.interactions:
        if interaction.query.kind == "invariant" \
                and interaction.answer is Answer.NO:
            facts.append(neg(interaction.query.formula))
        elif interaction.query.kind == "witness" \
                and interaction.answer is Answer.YES:
            facts.append(interaction.query.formula)
    return facts


def _candidate_formulas(analysis: AnalysisResult, config, solver,
                        session, store) -> list[Formula]:
    candidates: list[Formula] = []
    abducer = Abducer(
        msa_strategy=config.msa_strategy,
        use_simplification=config.use_simplification,
        solver=solver,
    )
    gamma, _ = abduce_stage(
        abducer, config, analysis.invariants, analysis.success,
        store=store,
    )
    if gamma is not None:
        candidates.append(gamma.formula)
    if session is not None:
        facts = learned_facts(session)
        if facts:
            candidates.append(conj(*facts))
    seen: set[str] = set()
    unique: list[Formula] = []
    for psi in candidates:
        if psi.is_true or psi.is_false:
            continue
        key = digest(psi)
        if key not in seen:
            seen.add(key)
            unique.append(psi)
    return unique


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _verify(patched: Program, solver) -> tuple[str | None, str]:
    """Render, then re-run the front end and the entail stage (Lemma 1).

    Returns ``(rejection_reason_or_None, patched_source)``.  The reason
    is ``'inconsistent'`` when the patched axioms are UNSAT (the
    post-splice half of the consistency guard) and ``'not-discharged'``
    when the patched judgment still does not close.
    """
    source = render_program(patched)
    _, analysis = front_end(source)
    outcome = entail_stage(solver, analysis.invariants, analysis.success)
    if not outcome.consistent:
        return "inconsistent", source
    if outcome.discharged:
        return None, source
    return "not-discharged", source


def _diff(name: str, original: str, patched: str) -> str:
    return "".join(difflib.unified_diff(
        original.splitlines(keepends=True),
        patched.splitlines(keepends=True),
        fromfile=f"a/{name}.err", tofile=f"b/{name}.err",
    ))


def _edit_records(plan: Plan) -> tuple[EditRecord, ...]:
    return tuple(
        EditRecord(kind=e.kind, pred=render_pred(e.pred), line=e.line,
                   target=e.target, label=e.label)
        for e in plan.edits
    )


# ---------------------------------------------------------------------------
# cache (de)serialization
# ---------------------------------------------------------------------------

def _patch_to_artifact(patch: RepairPatch) -> dict:
    return {
        "kind": patch.kind,
        "formula": formula_to_obj(patch.formula),
        "edits": [e.to_dict() for e in patch.edits],
        "diff": patch.diff,
        "patched_source": patch.patched_source,
        "verified": patch.verified,
        "rejected": patch.rejected,
        "cost": list(patch.cost),
        "refuted": patch.refuted,
    }


def _patch_from_artifact(rank: int, artifact: dict) -> RepairPatch:
    return RepairPatch(
        rank=rank,
        kind=artifact["kind"],
        formula=formula_from_obj(artifact["formula"]),
        edits=tuple(
            EditRecord(kind=e["kind"], pred=e["pred"], line=e["line"],
                       target=e.get("target"), label=e.get("label"))
            for e in artifact["edits"]
        ),
        diff=artifact["diff"],
        patched_source=artifact["patched_source"],
        verified=artifact["verified"],
        rejected=artifact["rejected"],
        cost=(artifact["cost"][0], artifact["cost"][1]),
        refuted=artifact["refuted"],
    )


def _record_prov(patches: list[RepairPatch], candidates: int) -> None:
    if not prov.is_enabled():
        return
    prov.record("repair", candidates=candidates, patches=len(patches),
                verified=sum(1 for p in patches if p.verified))
    for patch in patches:
        prov.record(
            "repair-patch", rank=patch.rank, patch_kind=patch.kind,
            formula=prov.fmla(patch.formula), verified=patch.verified,
            rejected=patch.rejected, edits=len(patch.edits),
        )


def _consistent(solver, invariants: Formula, *facts: Formula) -> bool:
    """``SAT(I ∧ facts)``, decided on the slice of ``I`` they reach."""
    return solver.is_sat(conj(
        relevant_invariants(solver, invariants, *facts), *facts))


def _plan_and_verify(program: Program, analysis: AnalysisResult,
                     candidates: list[Formula], refuting: list[Formula],
                     solver, original: str) -> list[RepairPatch]:
    """Place every candidate and verify each placement (unranked)."""
    raw: list[RepairPatch] = []
    for psi in candidates:
        plans = plan_placements(program, analysis, psi)
        if not plans:
            obs.inc("repair.rejected.inexpressible")
            continue
        # the ARGIR consistency guard: a condition contradicting the
        # axioms must never be spliced in, however well it "proves"
        # the obligation (UNSAT premises prove anything)
        consistent = _consistent(solver, analysis.invariants, psi)
        # Figure 6's line-5 condition, applied to patches: ψ must leave
        # room for every execution the oracle said exists
        refuted = consistent and any(
            not _consistent(solver, analysis.invariants, psi, w)
            for w in refuting)
        cost = (len(psi.free_vars()), psi.size())
        for plan in plans:
            obs.inc("repair.plans")
            # an @post or @assume edit claims ψ of every execution
            claims = any(e.kind in ("post", "assume") for e in plan.edits)
            rejected = None if consistent else "inconsistent"
            if refuted and claims:
                rejected = "refuted"
            if rejected is not None:
                obs.inc(f"repair.rejected.{rejected}")
                raw.append(RepairPatch(
                    rank=0, kind=plan.kind, formula=psi,
                    edits=_edit_records(plan), diff="",
                    patched_source="", verified=False,
                    rejected=rejected, cost=cost, refuted=refuted,
                ))
                continue
            patched = apply_edits(program, plan.edits)
            rejected, source = _verify(patched, solver)
            if rejected is None:
                obs.inc("repair.verified")
            elif rejected == "inconsistent":
                obs.inc("repair.rejected.inconsistent")
            else:
                obs.inc("repair.rejected.unverified")
            raw.append(RepairPatch(
                rank=0, kind=plan.kind, formula=psi,
                edits=_edit_records(plan),
                diff=_diff(program.name, original, source),
                patched_source=source,
                verified=rejected is None, rejected=rejected,
                cost=cost, refuted=refuted,
            ))
    return raw


# ---------------------------------------------------------------------------
# the synthesis stage
# ---------------------------------------------------------------------------

def synthesize_repairs(program: Program, analysis: AnalysisResult, *,
                       config=None, solver=None, session=None,
                       max_patches: int | None = None, store=None
                       ) -> list[RepairPatch]:
    """The ranked patch list for one non-real-bug report.

    ``program`` must be the (annotated) program ``analysis`` describes;
    ``session`` optionally contributes the facts a diagnosis session
    learned, and the refuting facts that no ``@post``/``@assume`` patch
    may contradict.  Patches come back ranked — verified ones first,
    unrefuted before refuted, then by the paper's cost order — and
    truncated to ``max_patches``.  ``store`` holds the candidate
    abduction and the ranked patch list: a warm run replays the whole
    ``repair`` artifact, so the plan-and-verify checks persist nothing.
    """
    from ..diagnosis import EngineConfig
    from ..smt import SmtSolver

    config = config or EngineConfig()
    solver = solver or SmtSolver()

    with obs.span("repair.synthesize"):
        candidates = _candidate_formulas(analysis, config, solver,
                                         session, store)
        obs.inc("repair.candidates", len(candidates))
        refuting = refuting_facts(session) if session is not None else []

        original = render_program(program)
        key = None
        if store is not None:
            key = digest_many(
                "repair", STAGE_VERSION, REPAIR_VERSION,
                config_fingerprint(config), digest_text(original),
                analysis.invariants, analysis.success,
                "C", *candidates, "R", *refuting,
            )
            artifact = store.get("repair", key)
            if artifact is not None:
                patches = [
                    _patch_from_artifact(rank, entry)
                    for rank, entry in enumerate(artifact["patches"], 1)
                ]
                _record_prov(patches, len(candidates))
                return patches[:max_patches]

        raw = _plan_and_verify(program, analysis, candidates, refuting,
                               solver, original)

        # a refuted ψ's guard turns the check off for executions the
        # oracle said exist: it ranks below every unrefuted patch
        kind_order = {"targeted": 0, "guard": 1}
        raw.sort(key=lambda p: (
            not p.verified, p.refuted, p.cost[0], p.cost[1],
            kind_order.get(p.kind, 2), p.gamma_digest,
        ))
        patches = [replace(p, rank=rank) for rank, p in enumerate(raw, 1)]
        if store is not None and key is not None:
            store.put("repair", key, {
                "patches": [_patch_to_artifact(p) for p in patches],
            })
        _record_prov(patches, len(candidates))
        return patches[:max_patches]
