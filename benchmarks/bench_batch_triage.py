"""Batch-triage driver: serial vs parallel wall time, cache hit rates.

Measures the three perf layers working together on the full Figure 7
suite: hash-consed formulas + persistent caches make each report cheap,
per-worker solver reuse keeps repeat reports cheaper still, and the
multiprocessing fan-out divides wall time across cores.

The parallel-beats-serial assertion only applies on multi-core machines
— on a single core the fork/pickle overhead necessarily loses, and the
suite must not fail for being run on a small box.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.batch import triage_many
from repro.logic import conj, implies, neg
from repro.qe.cooper import clear_qe_caches
from repro.smt import SmtSolver
from repro.suite import BENCHMARKS

SUITE = [b.name for b in BENCHMARKS]
MULTICORE = (os.cpu_count() or 1) >= 2


def test_serial_triage_full_suite(benchmark):
    result = benchmark.pedantic(
        triage_many, args=(SUITE,), kwargs={"jobs": 1},
        rounds=1, iterations=1,
    )
    assert result.mode == "serial"
    assert all(o.correct for o in result.outcomes)
    benchmark.extra_info["wall_seconds"] = result.wall_seconds


def test_parallel_triage_full_suite(benchmark):
    jobs = min(4, os.cpu_count() or 1) if MULTICORE else 2
    result = benchmark.pedantic(
        triage_many, args=(SUITE,), kwargs={"jobs": jobs},
        rounds=1, iterations=1,
    )
    assert result.mode in ("parallel", "degraded")
    assert all(o.correct for o in result.outcomes)
    benchmark.extra_info["wall_seconds"] = result.wall_seconds
    benchmark.extra_info["jobs"] = jobs


@pytest.mark.skipif(not MULTICORE,
                    reason="speedup needs at least two cores")
def test_parallel_beats_serial_wall_clock():
    serial = triage_many(SUITE, jobs=1)
    parallel = triage_many(SUITE, jobs=min(4, os.cpu_count() or 1))
    assert parallel.mode == "parallel"
    assert [(o.name, o.classification) for o in parallel.outcomes] == \
           [(o.name, o.classification) for o in serial.outcomes]
    assert parallel.wall_seconds < serial.wall_seconds


def test_solver_cache_hit_rate(suite_artifacts):
    """The diagnosis engine's repeated checks must mostly hit the
    verdict memo once invariants stabilize within a round."""
    clear_qe_caches()                           # a cold memo
    solver = SmtSolver()
    checked = set()
    was_enabled = obs.is_enabled()
    obs.enable()
    try:
        with obs.capture() as scope:
            for name in SUITE[:4]:
                _bench, _program, analysis = suite_artifacts[name]
                inv, phi = analysis.invariants, analysis.success
                for _ in range(3):                  # engine-style re-checks
                    for formula in (inv, conj(inv, phi),
                                    neg(implies(inv, phi))):
                        solver.is_sat(formula)
                        checked.add(formula)
    finally:
        if not was_enabled:
            obs.disable()
    counters = scope.snapshot["counters"]
    hits = counters.get("smt.is_sat.hit", 0)
    misses = counters.get("smt.is_sat.miss", 0)
    hit_rate = hits / (hits + misses)
    print(f"\nverdict memo: {hits} hits, {misses} misses "
          f"(hit rate {hit_rate:.1%})")
    assert hit_rate >= 0.5
    assert misses == len(checked)               # nothing evicted
