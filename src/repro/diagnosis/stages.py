"""The diagnosis loop as named, cacheable pipeline stages.

The Figure 6 engine used to interleave its solver calls with its control
flow; this module splits one round of the loop into pure stages —

    analyze -> entail(I, phi) -> abduce(Gamma) / abduce(Upsilon)
            -> choose -> decompose

— each a function from *digested* inputs to a serializable artifact.
The solver stages, ``entail`` and ``abduce``, take an optional
:class:`repro.cache.CacheStore`; with a store, the artifact is looked up
under a content digest of everything it depends on (the judgment
formulas, the learned facts, the engine configuration and
:data:`STAGE_VERSION`) before any solver work runs, and persisted after
a miss.  ``choose`` and ``decompose`` always compute: reading their
artifacts back would cost more than recomputing them.  Because the keys
are content digests (:mod:`repro.logic.digest`), artifacts computed by
one process — or one batch worker — are hits for every other process
that sees the same judgment, which is what makes warm re-triage of an
unchanged report perform zero MSA/QE work.

Provenance is cache-transparent: a stage emits the *same*
``prov.record`` payloads whether it computed its artifact or replayed
it, so derivation DAGs do not change shape when a cache warms up.
Telemetry is not: hits skip the solver counters/spans by construction
(that is the observable proof of the skipped work) and surface instead
as ``cache.<stage>.hit`` counters from the store.

The ``analyze`` stage lives with the report runner
(:mod:`repro.batch.outcomes`), which owns program loading; its artifact
maps a *source* digest to the judgment digests so an unchanged report
can be recognized without re-running the abstract interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..obs import provenance as prov
from ..logic.digest import digest, digest_many
from ..logic.formulas import Formula, conj, implies, neg
from ..logic.serialize import (
    formula_from_obj,
    formula_to_obj,
    var_from_obj,
    var_to_obj,
)
from ..msa import MsaResult
from .abduction import Abducer, Abduction, relevant_invariants
from .cost import formula_cost, pi_p, pi_w, uniform

__all__ = [
    "STAGE_VERSION",
    "EntailOutcome",
    "abduce_stage",
    "choose_stage",
    "config_fingerprint",
    "decompose_stage",
    "entail_stage",
]

#: Version of the stage artifact formats; folded into every stage key so
#: a change to any artifact schema invalidates old entries wholesale.
STAGE_VERSION = "s1"


def config_fingerprint(config) -> str:
    """Digest of every :class:`EngineConfig` knob a stage artifact can
    depend on (the round budget does not change verdicts)."""
    return digest_many(
        "engine-config", STAGE_VERSION, config.cost_model,
        config.msa_strategy, str(int(config.use_simplification)),
        str(int(config.use_abduction)),
    )


# ---------------------------------------------------------------------------
# entail(I, phi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntailOutcome:
    """Verdicts of the round-opening entailment checks (Figure 6,
    lines 1-4, plus the learned-witness closure of Lemma 2).

    Fields after the first decisive one are ``None`` — the compute path
    short-circuits, and the replay path reproduces exactly the checks
    that ran.
    """

    consistent: bool
    discharged: bool | None = None
    validated: bool | None = None
    witness_index: int | None = None   # learned witness that closed it
    cached: bool = False


def _entail_prov(outcome: EntailOutcome, invariants: Formula,
                 success: Formula, witnesses: tuple[Formula, ...],
                 round_index: int) -> None:
    """Emit the entailment derivation records for ``outcome`` — the same
    payloads whether the verdicts were computed or replayed."""
    prov.record(
        "entailment", lemma="consistency",
        check=f"SAT({prov.fmla(invariants)})",
        verdict=outcome.consistent, round=round_index,
    )
    if not outcome.consistent:
        return
    prov.record(
        "entailment", lemma="lemma-1",
        check=f"I |= {prov.fmla(success)}",
        verdict=bool(outcome.discharged), round=round_index,
    )
    if outcome.discharged:
        return
    prov.record(
        "entailment", lemma="lemma-2",
        check=f"UNSAT(I and {prov.fmla(success)})",
        verdict=bool(outcome.validated), round=round_index,
    )
    if outcome.validated:
        return
    for index, psi in enumerate(witnesses):
        closes = outcome.witness_index == index
        prov.record(
            "entailment", lemma="lemma-2",
            check=f"UNSAT(I and {prov.fmla(psi)} and phi)",
            verdict=closes, round=round_index,
        )
        if closes:
            return


def entail_stage(solver, invariants: Formula, success: Formula,
                 witnesses: tuple[Formula, ...] = (),
                 *, round_index: int = 0, store=None) -> EntailOutcome:
    """Decide whether ``(I, phi)`` (relative to learned witnesses) can be
    closed outright: consistency, Lemma 1, Lemma 2, witness closure."""
    key = None
    if store is not None:
        key = digest_many("entail", STAGE_VERSION, invariants, success,
                          str(len(witnesses)), *witnesses)
        artifact = store.get("entail", key)
        if artifact is not None:
            outcome = EntailOutcome(
                consistent=artifact["consistent"],
                discharged=artifact["discharged"],
                validated=artifact["validated"],
                witness_index=artifact["witness"],
                cached=True,
            )
            if prov.is_enabled():
                _entail_prov(outcome, invariants, success, witnesses,
                             round_index)
            return outcome

    # The checks read only the part of I that phi and the witnesses can
    # reach, which decides each of them exactly as all of I does; the
    # key and the derivation records keep the full judgment.
    sliced = relevant_invariants(solver, invariants, success, *witnesses)
    # Inconsistent knowledge would make every check below vacuous; bail
    # out before trusting it (only reachable via an oracle that
    # contradicted itself).
    consistent = solver.is_sat(sliced)
    discharged = validated = witness_index = None
    if consistent:
        # Figure 6, lines 3-4: try to close the report outright.
        discharged = solver.is_valid(implies(sliced, success))
        if not discharged:
            # Lemma 2: I |= !phi — every execution fails the check
            validated = not solver.is_sat(conj(sliced, success))
            if not validated:
                for index, psi in enumerate(witnesses):
                    if not solver.is_sat(conj(sliced, psi, success)):
                        witness_index = index
                        break
    outcome = EntailOutcome(
        consistent=consistent, discharged=discharged,
        validated=validated, witness_index=witness_index,
    )
    if prov.is_enabled():
        _entail_prov(outcome, invariants, success, witnesses, round_index)
    if store is not None:
        store.put("entail", key, {
            "consistent": consistent, "discharged": discharged,
            "validated": validated, "witness": witness_index,
        })
    return outcome


# ---------------------------------------------------------------------------
# abduce(Gamma) / abduce(Upsilon)
# ---------------------------------------------------------------------------

def _abduction_to_artifact(abduction: Abduction | None) -> dict:
    if abduction is None:
        return {"feasible": False}
    return {
        "feasible": True,
        "kind": abduction.kind,
        "formula": formula_to_obj(abduction.formula),
        "cost": abduction.cost,
        "unsimplified": formula_to_obj(abduction.unsimplified),
        "msa": [[var_to_obj(v), value]
                for v, value in abduction.msa.assignment],
        "msa_cost": abduction.msa.cost,
    }


def _abduction_from_artifact(artifact: dict, kind: str,
                             emit_prov: bool) -> Abduction | None:
    """Replay a cached abduction.  ``emit_prov`` mirrors whether the
    compute path (Abducer vs. the A2 trivial path) records derivations,
    keeping provenance identical between cold and warm runs."""
    if not artifact["feasible"]:
        if emit_prov and prov.is_enabled():
            prov.record("abduce", abduction_kind=kind, cost=None,
                        formula="(infeasible)")
        return None
    formula = formula_from_obj(artifact["formula"])
    msa = MsaResult(
        tuple((var_from_obj(v), value) for v, value in artifact["msa"]),
        artifact["msa_cost"],
    )
    if emit_prov and prov.is_enabled():
        # the same derivation record Abducer._abduce emits on compute
        prov.record(
            "abduce", abduction_kind=kind, cost=artifact["cost"],
            formula=prov.fmla(formula),
            msa_variables=[v.name for v in msa.variables],
            msa_cost=msa.cost,
        )
    return Abduction(
        formula=formula,
        cost=artifact["cost"],
        kind=kind,
        msa=msa,
        unsimplified=formula_from_obj(artifact["unsimplified"]),
    )


def _trivial_abduction(solver, target: Formula, invariants: Formula,
                       costs, kind: str) -> Abduction | None:
    """Ablation A2: the trivial obligation ``Gamma = phi`` (and trivial
    witness ``Upsilon = not phi``) when consistent with ``I``."""
    if not solver.is_sat(conj(target, invariants)):
        return None
    return Abduction(
        formula=target,
        cost=formula_cost(target, costs),
        kind=kind,
        msa=MsaResult((), 0),
        unsimplified=target,
    )


def abduce_stage(
    abducer: Abducer,
    config,
    invariants: Formula,
    success: Formula,
    witnesses: tuple[Formula, ...] = (),
    potential_invariants: tuple[Formula, ...] = (),
    potential_witnesses: tuple[Formula, ...] = (),
    *, store=None,
) -> tuple[Abduction | None, Abduction | None]:
    """Compute (or replay) the round's proof obligation ``Gamma`` and
    failure witness ``Upsilon``.

    The two artifacts are keyed independently: ``Gamma`` depends on the
    learned witnesses and potential witnesses (its MSA must be
    consistent with them), ``Upsilon`` only on the potential invariants
    — so learning a witness invalidates one cache line, not both.
    """
    fingerprint = config_fingerprint(config)
    gamma_key = upsilon_key = gamma_artifact = upsilon_artifact = None
    if store is not None:
        gamma_key = digest_many(
            "abduce", STAGE_VERSION, "proof_obligation", fingerprint,
            invariants, success, "W", *witnesses,
            "PW", *potential_witnesses,
        )
        upsilon_key = digest_many(
            "abduce", STAGE_VERSION, "failure_witness", fingerprint,
            invariants, success, "PI", *potential_invariants,
        )
        gamma_artifact = store.get("abduce", gamma_key)
        upsilon_artifact = store.get("abduce", upsilon_key)

    cost_p = cost_w = None
    if gamma_artifact is None or upsilon_artifact is None:
        if config.cost_model == "uniform":
            cost_p = uniform(invariants, success)
            cost_w = uniform(invariants, success)
        else:
            cost_p = pi_p(invariants, success)
            cost_w = pi_w(invariants, success)

    # Resolve Gamma, then Upsilon — replayed or computed, the derivation
    # records come out in the same order as an all-compute round.
    if gamma_artifact is not None:
        gamma = _abduction_from_artifact(
            gamma_artifact, "proof_obligation", config.use_abduction)
    else:
        if config.use_abduction:
            gamma = abducer.proof_obligation(
                invariants, success, cost_p,
                witnesses=witnesses,
                extra_consistency=potential_witnesses,
            )
        else:
            gamma = _trivial_abduction(
                abducer.solver, success, invariants, cost_p,
                "proof_obligation",
            )
        if store is not None:
            store.put("abduce", gamma_key, _abduction_to_artifact(gamma))
    if upsilon_artifact is not None:
        upsilon = _abduction_from_artifact(
            upsilon_artifact, "failure_witness", config.use_abduction)
    else:
        if config.use_abduction:
            upsilon = abducer.failure_witness(
                invariants, success, cost_w,
                extra_consistency=potential_invariants,
            )
        else:
            upsilon = _trivial_abduction(
                abducer.solver, neg(success), invariants, cost_w,
                "failure_witness",
            )
        if store is not None:
            store.put("abduce", upsilon_key,
                      _abduction_to_artifact(upsilon))
    return gamma, upsilon


# ---------------------------------------------------------------------------
# choose
# ---------------------------------------------------------------------------

def choose_stage(gamma: Abduction | None, upsilon: Abduction | None,
                 *, round_index: int = 0) -> bool:
    """Figure 6, line 9: ask the cheaper side first.  True means the
    invariant query (``Gamma``) is asked this round.

    A pure comparison — never persisted; the store would be slower than
    the subtraction.
    """
    ask_invariant = upsilon is None or (
        gamma is not None and gamma.cost <= upsilon.cost
    )
    if prov.is_enabled():
        prov.record(
            "choice",
            chosen="invariant" if ask_invariant else "witness",
            gamma_cost=None if gamma is None else gamma.cost,
            upsilon_cost=None if upsilon is None else upsilon.cost,
            round=round_index,
        )
    return ask_invariant


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def decompose_stage(kind: str, formula: Formula) -> list[Formula]:
    """Split a query into independently askable clauses (Section 4.4):
    CNF clauses for an invariant query, DNF clauses for a witness query.

    Never persisted, like ``choose``: recomputing the split is cheaper
    than reading it back from the store.
    """
    from .queries import decompose_invariant, decompose_witness

    if kind == "invariant":
        clauses = decompose_invariant(formula)
    else:
        clauses = decompose_witness(formula)
    if prov.is_enabled():
        prov.record("decompose", query_kind=kind,
                    mode="cnf" if kind == "invariant" else "dnf",
                    clauses=len(clauses), formula=prov.fmla(formula))
    return clauses
