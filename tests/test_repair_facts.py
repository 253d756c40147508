"""Repair never verifies a fact the diagnosis session refuted.

A NO to an invariant clause ``c`` means some execution satisfies ``¬c``.
A candidate ψ with ``UNSAT(I ∧ ψ ∧ ¬c)`` is *refuted*: its ``@post`` and
``@assume`` plans would claim ψ of every execution, so they are
rejected unspliced, and its guard plans rank below every unrefuted
verified patch.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import obs
from repro.api import Pipeline
from repro.cache import open_store
from repro.diagnosis import ExhaustiveOracle
from repro.diagnosis.engine import Interaction
from repro.diagnosis.queries import Answer, QueryRenderer
from repro.logic import le, neg
from repro.repair import synthesize_repairs
from repro.repair.synthesize import refuting_facts
from repro.suite import BENCHMARKS, benchmark_by_name, load_analysis

FALSE_ALARMS = [b.name for b in BENCHMARKS if b.is_false_alarm]

#: rank-1 patches: each is the fact the oracle affirmed, or p03's guard
#: (a disjunction's order follows the hash seed, so disjuncts are a set)
RANK1 = {
    "p01_accumulate": ("post", "n <= z + 1"),
    "p02_wordcount": ("post", "lines <= chars"),
    "p03_square": ("guard", "0 <= p"),
    "p05_strlcpy": ("post", "cap == 0 || padded + 1 <= cap"),
    "p06_chroot": ("post", "1 <= optind"),
    "p08_alternate": ("post", "odds <= evens"),
}


@pytest.fixture(scope="module")
def repairs():
    return {name: Pipeline().repair(name) for name in FALSE_ALARMS}


@pytest.mark.parametrize("name", FALSE_ALARMS)
def test_verified_post_patches_hold_in_every_box_execution(name, repairs):
    """The benchmark's ground-truth oracle, asked each verified
    ``@post`` patch's formula as an invariant query, never says NO."""
    bench = benchmark_by_name(name)
    program, analysis = load_analysis(bench)
    oracle = ExhaustiveOracle(program, analysis, radius=bench.oracle_radius)
    renderer = QueryRenderer(analysis)
    for patch in repairs[name].patches:
        if patch.verified and any(e.kind == "post" for e in patch.edits):
            answer = oracle.answer(renderer.invariant_query(patch.formula))
            assert answer is not Answer.NO, (patch.rank, str(patch.formula))


@pytest.mark.parametrize("name", FALSE_ALARMS)
def test_rank1_is_an_unrefuted_patch(name, repairs):
    best = repairs[name].best
    assert not best.refuted
    (edit,) = best.edits
    kind, pred = RANK1[name]
    assert (edit.kind, set(edit.pred.split(" || "))) == \
        (kind, set(pred.split(" || ")))
    verified = [p.refuted for p in repairs[name].patches if p.verified]
    assert verified == sorted(verified), "a refuted patch outranks"


@pytest.mark.parametrize("name", ["p02_wordcount", "p05_strlcpy",
                                  "p08_alternate"])
def test_refuted_post_plans_are_rejected_unspliced(name, repairs):
    rejected = [p for p in repairs[name].patches if p.rejected == "refuted"]
    assert rejected
    for patch in rejected:
        assert patch.refuted and not patch.verified
        assert patch.patched_source == "" and patch.diff == ""
        assert any(e.kind in ("post", "assume") for e in patch.edits)
        assert patch.to_dict()["rejected"] == "refuted"


def test_verified_patch_count(repairs):
    assert sum(r.verified_count for r in repairs.values()) == 13


def _p02_session(refuted: bool):
    """A p02 session that affirmed ``lines <= chars`` after, when
    ``refuted``, a NO to ``lines <= 0``."""
    _, analysis = load_analysis(benchmark_by_name("p02_wordcount"))
    renderer = QueryRenderer(analysis)
    var = {v.name: v for v in analysis.invariants.free_vars()}
    lines, chars = var["lines@loop1"], var["chars@loop1"]
    asked = [(le(lines, 0), Answer.NO)] if refuted else []
    asked.append((le(lines, chars), Answer.YES))
    return SimpleNamespace(interactions=[
        Interaction(renderer.invariant_query(q), a) for q, a in asked])


def test_refuting_facts_are_the_session_witnesses():
    session = _p02_session(refuted=True)
    assert refuting_facts(session) == \
        [neg(session.interactions[0].query.formula)]
    assert refuting_facts(_p02_session(refuted=False)) == []


def test_repair_key_folds_in_the_refuting_facts(tmp_path):
    """Two sessions with the same affirmed facts and different refuted
    ones must not share a ``repair`` artifact."""
    program, analysis = load_analysis(benchmark_by_name("p02_wordcount"))
    store = open_store(str(tmp_path / "store"))
    obs.enable()
    try:
        trusting = synthesize_repairs(
            program, analysis, session=_p02_session(refuted=False),
            store=store)
        with obs.capture() as cap:
            wary = synthesize_repairs(
                program, analysis, session=_p02_session(refuted=True),
                store=store)
    finally:
        obs.disable()
    assert not any(p.refuted for p in trusting)
    assert [p.rejected for p in wary].count("refuted") == 1
    assert cap.snapshot["counters"]["repair.rejected.refuted"] == 1
