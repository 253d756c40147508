"""Microbenchmarks of the decision-procedure stack (substrate health).

Not a paper experiment — these keep the from-scratch solver layers
honest: SAT on a pigeonhole family and a blocking-clause enumeration,
the Omega test on structured systems, Cooper QE on alternating
quantifiers, and a representative SMT entailment from the diagnosis
workload.

Runs under pytest (per-workload pytest-benchmark stats) or standalone
for CI::

    PYTHONPATH=src python benchmarks/bench_solver_stack.py

Standalone mode times every workload *cold* (solver memos dropped between
repetitions), normalizes by a pure-Python calibration loop so the bound
is machine-independent, fails (exit 1) when any workload exceeds its
pinned budget, and appends the timings to the ``BENCH_obs.json`` run
history so the trajectory across commits is visible.
"""

from __future__ import annotations

import sys
import time

from repro.lia import OmegaSolver
from repro.logic import (
    LinTerm,
    Var,
    conj,
    dvd,
    exists,
    forall,
    ge,
    le,
    lt,
    parse_formula,
)
from repro.qe import decide_closed
from repro.sat import SatSolver
from repro.smt import SmtSolver

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")


def pigeonhole_unsat(holes: int) -> bool:
    pigeons = holes + 1
    solver = SatSolver()
    solver.ensure_vars(pigeons * holes)
    var = lambda p, h: p * holes + h + 1
    for p in range(pigeons):
        solver.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var(p1, h), -var(p2, h)])
    return solver.solve()


def test_sat_pigeonhole(benchmark):
    result = benchmark(pigeonhole_unsat, 5)
    assert result is False


def enumeration_workload(groups: int = 12, size: int = 4,
                         cap: int = 400) -> int:
    """Blocking-clause model enumeration over one-hot groups: 400
    incremental solves on one solver, each adding one blocking clause,
    so propagation runs over an arena and watch lists that grow with
    every model (399 conflicts in all)."""
    solver = SatSolver()
    n = groups * size
    solver.ensure_vars(n)
    var = lambda g, i: g * size + i + 1
    for g in range(groups):
        solver.add_clause([var(g, i) for i in range(size)])
        for i in range(size):
            for j in range(i + 1, size):
                solver.add_clause([-var(g, i), -var(g, j)])
    count = 0
    while count < cap and solver.solve():
        model = solver.model()
        count += 1
        solver.add_clause(
            [-v if model[v] else v for v in range(1, n + 1)]
        )
    return count


def test_sat_enumeration(benchmark):
    assert benchmark(enumeration_workload) == 400


def omega_workload() -> bool:
    solver = OmegaSolver()
    lits = [
        ge(LinTerm.make([(x, 3), (y, -2)]), 1),
        le(LinTerm.make([(x, 3), (y, -2)]), 5),
        ge(LinTerm.make([(y, 7), (z, 2)]), 10),
        le(LinTerm.var(z), 50),
        ge(LinTerm.var(z), -50),
        dvd(4, LinTerm.var(x) + LinTerm.var(y)),
    ]
    return solver.solve_literals(lits) is not None


def test_omega_structured_system(benchmark):
    assert benchmark(omega_workload)


def omega_chain_workload() -> bool:
    """A six-variable coupled chain: every elimination step produces a
    real Fourier–Motzkin batch, so this is the workload that moves with
    the Omega test's row kernels."""
    vs = [Var(f"v{i}") for i in range(6)]
    lits = []
    for a, b in zip(vs, vs[1:]):
        lits.append(le(LinTerm.make([(a, 2), (b, -3)]), 4))
        lits.append(ge(LinTerm.make([(a, 1), (b, 1)]), -6))
    for v in vs:
        lits.append(le(LinTerm.var(v), 30))
        lits.append(ge(LinTerm.var(v), -30))
    return OmegaSolver().solve_literals(lits) is not None


def test_omega_chain(benchmark):
    assert benchmark(omega_chain_workload)


def cooper_workload() -> bool:
    # forall x exists y. 2y <= x < 2y + 2  (floor division exists)
    phi = forall([x], exists([y], conj(
        le(LinTerm.var(y, 2), LinTerm.var(x)),
        lt(LinTerm.var(x), LinTerm.var(y, 2) + 2),
    )))
    return decide_closed(phi)


def test_cooper_alternation(benchmark):
    assert benchmark(cooper_workload)


def cooper_deep_workload() -> bool:
    """Four alternation levels: forall x exists y forall z exists w,
    with one floor-division witness per existential block.  Cooper
    elimination has to chew through every level, so this is the
    heaviest pure-QE workload in the suite."""
    phi = forall([x], exists([y], conj(
        le(LinTerm.var(y, 2), LinTerm.var(x)),
        lt(LinTerm.var(x), LinTerm.var(y, 2) + 2),
        forall([z], exists([w], conj(
            le(LinTerm.var(w, 3), LinTerm.var(x) + LinTerm.var(z)),
            lt(LinTerm.var(x) + LinTerm.var(z), LinTerm.var(w, 3) + 3),
        ))),
    )))
    return decide_closed(phi)


def test_cooper_deep(benchmark):
    assert benchmark(cooper_deep_workload)


def smt_entailment_workload() -> bool:
    solver = SmtSolver()
    inv = parse_formula(
        "ann >= 0 && ai >= 0 && ai > n && n >= 0 && aj >= n"
    )
    phi = parse_formula(
        "(1 + ai + aj > 2*n && flag == 0) ||"
        " (ann + ai + aj > 2*n && flag != 0)"
    )
    return solver.entails(inv, phi)


def test_smt_entailment(benchmark):
    assert benchmark(smt_entailment_workload)


# ---------------------------------------------------------------------------
# standalone mode: pinned budgets + run-history append (CI)
# ---------------------------------------------------------------------------

WORKLOADS = {
    "sat_pigeonhole": lambda: pigeonhole_unsat(5) is False,
    "sat_enumeration": lambda: enumeration_workload() == 400,
    "omega_structured": omega_workload,
    "omega_chain": omega_chain_workload,
    "cooper_alternation": cooper_workload,
    "cooper_deep": cooper_deep_workload,
    "smt_entailment": smt_entailment_workload,
}

#: Pinned cold-time budgets, in *calibration units* (workload seconds
#: divided by the pure-Python calibration loop's seconds), so the bound
#: tracks machine speed instead of wall clock.  Each is ~3x the value
#: measured after the solver-core rewrite — tight enough that a return
#: to the pre-rewrite times (2-3x slower on the omega/cooper/smt
#: workloads) fails the gate, loose enough to absorb runner noise.
BUDGET_UNITS = {
    "sat_pigeonhole": 0.7,
    "sat_enumeration": 8.0,
    "omega_structured": 0.03,
    "omega_chain": 0.06,
    "cooper_alternation": 0.05,
    "cooper_deep": 0.10,
    "smt_entailment": 0.15,
}

REPEATS = 3


def _calibration_s() -> float:
    """Seconds for a fixed pure-Python arithmetic loop (machine speed)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    assert acc >= 0
    return best


def measure(repeats: int = REPEATS) -> tuple[float, dict[str, float]]:
    """Best-of-N *cold* seconds per workload: both the solver memos and
    the hash-consing tables (with their per-node digest memos) are
    dropped before every repetition, so each run pays the full
    build-normalize-solve cost exactly like a fresh process."""
    from repro.logic.intern import clear_intern_tables
    from repro.qe.cooper import clear_qe_caches

    timings: dict[str, float] = {}
    for name, fn in WORKLOADS.items():
        best = float("inf")
        for _ in range(repeats):
            clear_qe_caches()
            clear_intern_tables()
            start = time.perf_counter()
            ok = fn()
            elapsed = time.perf_counter() - start
            if not ok:
                raise AssertionError(f"workload {name} returned a wrong "
                                     f"result")
            best = min(best, elapsed)
        timings[name] = best
    return _calibration_s(), timings


def main(argv: list[str]) -> int:
    history_path = argv[1] if len(argv) > 1 else "BENCH_obs.json"
    cal, timings = measure()
    print(f"calibration loop: {cal * 1e3:.1f} ms")
    print(f"{'workload':20s} {'cold_ms':>9s} {'units':>7s} "
          f"{'budget':>7s}")
    failures = []
    units: dict[str, float] = {}
    for name, seconds in timings.items():
        units[name] = seconds / cal
        budget = BUDGET_UNITS[name]
        verdict = "ok" if units[name] <= budget else "OVER"
        print(f"{name:20s} {seconds * 1e3:9.2f} {units[name]:7.2f} "
              f"{budget:7.2f}  {verdict}")
        if units[name] > budget:
            failures.append(name)
    from repro.obs import history

    history.append_run(
        history_path, None, label="solver-stack",
        meta={
            "calibration_s": cal,
            "timings_ms": {k: v * 1e3 for k, v in timings.items()},
            "units": {k: round(v, 3) for k, v in units.items()},
            "budget_units": BUDGET_UNITS,
        },
    )
    print(f"appended solver-stack run to {history_path}")
    if failures:
        print(f"FAIL: over budget: {', '.join(failures)}")
        return 1
    print("all workloads within pinned budgets")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
