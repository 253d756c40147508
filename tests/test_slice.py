"""The entail and abduce stages decide against the slice of ``I`` that
their checks can reach (``relevant_invariants``).

The slice is exact: on generated programs and on the 11 Figure-7
judgments, the round-0 entailment verdicts and the round-0 ``Gamma`` /
``Upsilon`` equal the unsliced engine's (the reference patches the
slice function to the identity).  A pin records how much of each
Figure-7 ``I`` the success condition reaches, and the MSA is never
handed a conjunct that is disconnected from its seeds.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_program
from repro.diagnosis import EngineConfig, ExhaustiveOracle, diagnose_error
from repro.diagnosis import abduction, stages
from repro.diagnosis.abduction import Abducer, relevant_invariants
from repro.lang import parse_program
from repro.limits import ResourceExhausted
from repro.logic import Var, eq
from repro.logic.formulas import And, conj
from repro.msa import MsaSolver
from repro.smt import SmtSolver
from repro.suite import BENCHMARKS, load_analysis

from .strategies import random_program

#: Figure-7 conjuncts of ``I`` that ``phi`` reaches, of all conjuncts:
#: 30 of 81 in all, so 51 are dropped
FIGURE7_SLICES = {
    "p01_accumulate": (5, 6),
    "p02_wordcount": (3, 10),
    "p03_square": (1, 2),
    "p04_options": (2, 7),
    "p05_strlcpy": (7, 11),
    "p06_chroot": (1, 7),
    "p07_rotate": (3, 8),
    "p08_alternate": (2, 12),
    "p09_window": (2, 5),
    "p10_toggle": (2, 5),
    "p11_transfer": (2, 8),
}

JUDGMENTS = [f"gen-{seed}" for seed in range(40)] \
    + [b.name for b in BENCHMARKS]


def conjuncts(phi):
    if phi.is_true:
        return ()
    return phi.args if isinstance(phi, And) else (phi,)


def unreached(invariants, seeds) -> list:
    """Conjuncts of ``invariants`` that are not ground and share no
    variable with ``seeds``, directly or through other conjuncts."""
    reached = set().union(*(s.free_vars() for s in seeds))
    pending = [c for c in conjuncts(invariants) if c.free_vars()]
    grown = True
    while grown:
        grown = False
        for c in list(pending):
            if not reached.isdisjoint(c.free_vars()):
                reached |= c.free_vars()
                pending.remove(c)
                grown = True
    return pending


def assert_exact_split(sliced, invariants, seeds):
    """``sliced`` holds exactly the conjuncts of ``invariants`` that the
    seeds reach: none it keeps is disconnected, and none it drops shares
    a variable with what it keeps or with the seeds."""
    kept = conjuncts(sliced)
    assert set(kept) <= set(conjuncts(invariants))
    assert not unreached(sliced, seeds), sliced
    touched = set().union(*(c.free_vars() for c in (*kept, *seeds)))
    for c in conjuncts(invariants):
        if c not in kept:
            assert touched.isdisjoint(c.free_vars()), c


def judgment(name: str):
    if name.startswith("gen-"):
        source = random_program(int(name[4:]))
        return analyze_program(parse_program(source))
    return load_analysis(next(b for b in BENCHMARKS if b.name == name))[1]


def round0(analysis):
    """Round 0 of the engine: the entail verdicts, then Gamma and
    Upsilon when the report stays open (or the stage that ran out, as
    QE's DNF conversion does on a few generated judgments)."""
    solver = SmtSolver()
    entail = stages.entail_stage(solver, analysis.invariants,
                                 analysis.success)
    if not entail.consistent or entail.discharged or entail.validated:
        return entail, None
    try:
        return entail, stages.abduce_stage(
            Abducer(solver=solver), EngineConfig(), analysis.invariants,
            analysis.success)
    except ResourceExhausted as exc:
        return entail, exc.stage


def test_slice_keeps_what_phi_reaches_on_figure7():
    solver = SmtSolver()
    sizes = {}
    for bench in BENCHMARKS:
        _, analysis = load_analysis(bench)
        sliced = relevant_invariants(solver, analysis.invariants,
                                     analysis.success)
        sizes[bench.name] = (len(conjuncts(sliced)),
                             len(conjuncts(analysis.invariants)))
        assert_exact_split(sliced, analysis.invariants, [analysis.success])
    assert sizes == FIGURE7_SLICES
    assert sum(n - k for k, n in sizes.values()) == 51


def test_slice_returns_i_when_nothing_drops_or_the_rest_is_unsat():
    _, analysis = load_analysis(BENCHMARKS[1])   # p02: 3 of 10 kept
    invariants, success = analysis.invariants, analysis.success
    solver = SmtSolver()
    assert relevant_invariants(solver, invariants, success, invariants) \
        is invariants
    # an unsatisfiable remainder must reach the consistency check
    fresh = Var("fresh")
    contradiction = conj(invariants, eq(fresh, 0), eq(fresh, 1))
    assert relevant_invariants(solver, contradiction, success) \
        is contradiction


@pytest.mark.parametrize("name", JUDGMENTS)
def test_sliced_round0_equals_unsliced(name, monkeypatch):
    analysis = judgment(name)
    sliced = relevant_invariants(SmtSolver(), analysis.invariants,
                                 analysis.success)
    if sliced is not analysis.invariants:
        assert_exact_split(sliced, analysis.invariants, [analysis.success])
    entail, abduced = round0(analysis)
    for module in (abduction, stages):
        monkeypatch.setattr(module, "relevant_invariants",
                            lambda solver, invariants, *seeds: invariants)
    reference, expected = round0(analysis)
    assert entail == reference
    if not isinstance(expected, tuple):
        assert abduced == expected
        return
    solver = SmtSolver()
    for ours, theirs in zip(abduced, expected):
        assert (ours is None) == (theirs is None)
        if ours is None:
            continue
        assert ours.msa.variables == theirs.msa.variables
        assert (ours.cost, ours.msa.cost) == (theirs.cost, theirs.msa.cost)
        assert solver.entails(ours.formula, theirs.formula)
        assert solver.entails(theirs.formula, ours.formula)


def test_generated_judgments_exercise_the_slice():
    """The property above is not vacuous: many generated judgments
    drop part of ``I``."""
    solver = SmtSolver()
    dropped = 0
    for seed in range(40):
        analysis = judgment(f"gen-{seed}")
        dropped += relevant_invariants(solver, analysis.invariants,
                                       analysis.success) \
            is not analysis.invariants
    assert dropped >= 15


def test_msa_never_sees_a_conjunct_disconnected_from_its_seeds(
        monkeypatch):
    """Every MSA of every Figure-7 session (all rounds, learned
    witnesses and facts included) gets a slice of ``I`` whose conjuncts
    all reach the target or a side formula, and that drops no conjunct
    they reach."""
    seeds: list = []
    calls: list = []
    abduce, find = Abducer._abduce, MsaSolver.find

    def spy_abduce(self, invariants, target, costs, side, kind):
        seeds.append((invariants, (target, *side)))
        return abduce(self, invariants, target, costs, side, kind)

    def spy_find(self, phi, costs, consistency=(), **kwargs):
        full, seed = seeds[-1]
        calls.append((full, seed, consistency))
        return find(self, phi, costs, consistency, **kwargs)

    monkeypatch.setattr(Abducer, "_abduce", spy_abduce)
    monkeypatch.setattr(MsaSolver, "find", spy_find)
    for bench in BENCHMARKS:
        program, analysis = load_analysis(bench)
        diagnose_error(analysis, ExhaustiveOracle(
            program, analysis, radius=bench.oracle_radius))
    assert len(calls) >= 30
    for full, seed, consistency in calls:
        sliced, side = consistency[0], tuple(consistency[1:])
        assert side == seed[1:]
        assert_exact_split(sliced, full, seed)
    assert any(consistency[0] is not full for full, _, consistency in calls)
