"""Experiment E8: enabled-governor overhead of the limits layer.

The resource-governance checkpoints (:func:`repro.limits.tick`) sit at
the loop heads of Cooper QE, the MSA search, CDCL, the lazy SMT rounds
and the Omega test.  Two contracts are pinned here:

* **inactive** — with no governor installed a checkpoint is one global
  load and a ``None`` check, so an ungoverned run must stay within 5%
  of one with the checkpoints stubbed out entirely;
* **governed** — an *active* governor with generous (never-binding)
  limits does real accounting per tick, and must still stay within 5%
  of the ungoverned run.

Both comparisons use interleaved min-of-N chunks of the same abduction
round as ``bench_overhead.py``, so one-sided drift (CPU frequency,
cache warm-up ordering) cannot masquerade as checkpoint overhead.
Runs standalone (non-zero exit past a bound, for CI) or under pytest.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

OVERHEAD_BOUND = 0.05
REPEATS = 7
ITERATIONS = 3

FOO = """
program foo(flag, unsigned n) {
  var k = 1, i = 0, j = 0;
  if (flag != 0) { k = n * n; }
  while (i <= n) { i = i + 1; j = j + i; } @post(i >= 0 && i > n)
  var z = k + i + j;
  assert(z > 2 * n);
}
"""


def _workload():
    """One full abduction round (obligation + witness) on a fresh
    abducer, driving QE, MSA, simplification, SAT and SMT.  The SMT
    verdict and Omega memos start cold, so the round's SMT checks run
    rather than hit the process-wide memos; the QE memos stay warm."""
    from repro.diagnosis import Abducer, pi_p, pi_w
    from repro.lia import omega
    from repro.smt import solver

    solver._VERDICTS.clear()
    omega._MODELS.clear()
    analysis = _workload.analysis
    abducer = Abducer()
    inv, phi = analysis.invariants, analysis.success
    gamma = abducer.proof_obligation(inv, phi, pi_p(inv, phi))
    upsilon = abducer.failure_witness(inv, phi, pi_w(inv, phi))
    return gamma, upsilon


def _prepare() -> None:
    from repro.api import Pipeline

    _workload.analysis = Pipeline().analyze(FOO).analysis


def _timed_chunk(iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        _workload()
    return time.perf_counter() - start


@contextmanager
def _stubbed_ticks():
    """Swap :func:`repro.limits.tick` for a bare no-op — the
    "checkpoints compiled out" baseline.  Covers every solver because
    they all call through the module attribute."""
    from repro import limits

    real = limits.tick
    limits.tick = lambda stage, amount=1: None
    try:
        yield
    finally:
        limits.tick = real


def measure(repeats: int = REPEATS, iterations: int = ITERATIONS
            ) -> dict[str, float]:
    """Best-chunk seconds for each mode plus the two relative overheads
    (``inactive_overhead`` vs stubbed, ``governed_overhead`` vs
    inactive)."""
    from repro import limits

    _prepare()
    _workload()  # warm every lazy cache outside the timed region
    # generous bounds: orders of magnitude above what one round spends,
    # so the governed run takes every accounting branch but never raises
    roomy = limits.Limits(deadline=3600.0, max_steps=10**12)
    stubbed = inactive = governed = float("inf")
    for _ in range(repeats):
        with _stubbed_ticks():
            stubbed = min(stubbed, _timed_chunk(iterations))
        inactive = min(inactive, _timed_chunk(iterations))
        with limits.governed(roomy):
            governed = min(governed, _timed_chunk(iterations))
    return {
        "stubbed": stubbed,
        "inactive": inactive,
        "governed": governed,
        "inactive_overhead": inactive / stubbed - 1.0,
        "governed_overhead": governed / inactive - 1.0,
    }


def test_inactive_checkpoints_below_bound():
    m = measure()
    assert m["inactive"] <= m["stubbed"] * (1.0 + OVERHEAD_BOUND), (
        f"inactive checkpoints cost {100.0 * m['inactive_overhead']:.1f}% "
        f"(stubbed {m['stubbed']:.4f}s vs inactive {m['inactive']:.4f}s); "
        f"bound is {100.0 * OVERHEAD_BOUND:.0f}%"
    )


def test_governed_checkpoints_below_bound():
    m = measure()
    assert m["governed"] <= m["inactive"] * (1.0 + OVERHEAD_BOUND), (
        f"an active governor costs {100.0 * m['governed_overhead']:.1f}% "
        f"(inactive {m['inactive']:.4f}s vs governed {m['governed']:.4f}s); "
        f"bound is {100.0 * OVERHEAD_BOUND:.0f}%"
    )


def main() -> int:
    m = measure()
    print(f"stubbed  (no checkpoints):    {m['stubbed']:.4f}s")
    print(f"inactive (no governor):       {m['inactive']:.4f}s  "
          f"({100.0 * m['inactive_overhead']:+.2f}%)")
    print(f"governed (generous limits):   {m['governed']:.4f}s  "
          f"({100.0 * m['governed_overhead']:+.2f}%)")
    failed = False
    if m["inactive"] > m["stubbed"] * (1.0 + OVERHEAD_BOUND):
        print("FAIL: inactive checkpoint overhead exceeds the bound",
              file=sys.stderr)
        failed = True
    if m["governed"] > m["inactive"] * (1.0 + OVERHEAD_BOUND):
        print("FAIL: enabled-governor overhead exceeds the bound",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"ok: governance overhead is within "
          f"{100.0 * OVERHEAD_BOUND:.0f}% in both modes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
