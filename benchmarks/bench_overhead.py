"""Experiment E7: instrumentation overhead of the obs layer.

The observability probes (``obs.span`` / ``obs.inc`` / ``obs.gauge``)
and the provenance recorder (``prov.record``) sit on the hottest paths
of the stack — Cooper QE, the MSA search, the CDCL solver, the
abduction engine.  Two contracts are pinned here:

* **provenance disabled** (the default state of every process) must
  cost under 5% of an abduction round: each probe is one function call
  that checks a single module-global boolean;
* **provenance enabled** (spans + histograms + derivation nodes with
  their formula renderings) must cost under 10% — the price of a full
  ``explain``-grade derivation DAG;
* **everything on** (obs + provenance + structured logging with a
  trace context bound and the slow-query hook armed) must also stay
  under 10% — the price of a fully observable production run.

Four timings of the same abduction-round workload are compared:

* **stubbed** — ``obs.stubbed()`` swaps every probe for a bare no-op,
  the "instrumentation compiled out" baseline;
* **disabled** — the real probes with instrumentation off;
* **enabled** — core obs *and* provenance recording both on;
* **full** — enabled plus ``repro.obs.logging`` configured (ring sink,
  slow-query hook) under a bound :class:`~repro.obs.context.TraceContext`.

Min-of-N timing is used on all sides so scheduler noise cannot fail
the bounds spuriously; when a bound still trips, the measurement is
repeated (up to three attempts, minima merged) before failing —
per-process systematic noise (allocator/code placement) occasionally
inflates one mode by several percent on shared machines.  Runs
standalone (exit code 1 past a bound, for CI) or under pytest; the
standalone run appends its measurements to
``BENCH_obs.json`` (schema ``repro.history/1``) so the overhead
trajectory is tracked across commits.
"""

from __future__ import annotations

import gc
import sys
import time

OVERHEAD_BOUND = 0.05
PROVENANCE_BOUND = 0.10
FULL_BOUND = 0.10
REPEATS = 16
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
    gc.collect()
    start = time.perf_counter()
    for _ in range(iterations):
        _workload()
    return time.perf_counter() - start


def measure(repeats: int = REPEATS,
            iterations: int = ITERATIONS) -> dict[str, float]:
    """Best-chunk seconds for each mode plus relative overheads.

    The three modes are timed in *interleaved* chunks and each side
    takes its best chunk, so one-sided drift (CPU frequency, cache
    warm-up ordering) cannot masquerade as probe overhead.
    """
    from repro import obs
    from repro.obs import context as ocontext
    from repro.obs import logging as olog
    from repro.obs import provenance as prov

    prov.disable()
    obs.disable()
    olog.reset()
    _prepare()
    _workload()  # warm every lazy cache outside the timed region
    stubbed = disabled = enabled = full = float("inf")
    # collector pauses hit the allocation-heavy instrumented chunks
    # hardest; keep them out of every timed region so the comparison
    # measures probes, not GC scheduling
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            with obs.stubbed():
                stubbed = min(stubbed, _timed_chunk(iterations))
            disabled = min(disabled, _timed_chunk(iterations))
            prov.enable()
            enabled = min(enabled, _timed_chunk(iterations))
            olog.configure(level="info", slow_query_ms=100.0)
            with ocontext.bind(ocontext.new_trace("bench")):
                full = min(full, _timed_chunk(iterations))
            olog.reset()
            prov.disable()
            obs.disable()
            prov.reset()
            obs.reset()
    finally:
        if gc_was_enabled:
            gc.enable()
        olog.reset()
        prov.disable()
        obs.disable()
        prov.reset()
        obs.reset()
    return {
        "stubbed_s": stubbed,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "full_s": full,
        "disabled_overhead": disabled / stubbed - 1.0,
        "enabled_overhead": enabled / stubbed - 1.0,
        "full_overhead": full / stubbed - 1.0,
    }


def _overheads(m: dict[str, float]) -> dict[str, float]:
    stubbed = m["stubbed_s"]
    m["disabled_overhead"] = m["disabled_s"] / stubbed - 1.0
    m["enabled_overhead"] = m["enabled_s"] / stubbed - 1.0
    m["full_overhead"] = m["full_s"] / stubbed - 1.0
    return m


def _bounds_ok(m: dict[str, float]) -> bool:
    stubbed = m["stubbed_s"]
    return (m["disabled_s"] <= stubbed * (1.0 + OVERHEAD_BOUND)
            and m["enabled_s"] <= stubbed * (1.0 + PROVENANCE_BOUND)
            and m["full_s"] <= stubbed * (1.0 + FULL_BOUND))


def measure_robust(attempts: int = 3) -> dict[str, float]:
    """Measure, retrying on a tripped bound with minima merged.

    Every mode takes the min over all attempts — the same estimator on
    every side, so retrying cannot bias the comparison, only remove
    one-process noise.
    """
    best: dict[str, float] | None = None
    for _ in range(attempts):
        m = measure()
        if best is None:
            best = m
        else:
            for key in ("stubbed_s", "disabled_s", "enabled_s",
                        "full_s"):
                best[key] = min(best[key], m[key])
        if _bounds_ok(best):
            break
    return _overheads(best)


def test_disabled_overhead_below_bound():
    m = measure_robust()
    assert m["disabled_s"] <= m["stubbed_s"] * (1.0 + OVERHEAD_BOUND), (
        f"disabled-mode probes cost {100.0 * m['disabled_overhead']:.1f}% "
        f"(stubbed {m['stubbed_s']:.4f}s vs disabled "
        f"{m['disabled_s']:.4f}s); bound is "
        f"{100.0 * OVERHEAD_BOUND:.0f}%"
    )


def test_provenance_overhead_below_bound():
    m = measure_robust()
    assert m["enabled_s"] <= m["stubbed_s"] * (1.0 + PROVENANCE_BOUND), (
        f"provenance-enabled run costs "
        f"{100.0 * m['enabled_overhead']:.1f}% "
        f"(stubbed {m['stubbed_s']:.4f}s vs enabled "
        f"{m['enabled_s']:.4f}s); bound is "
        f"{100.0 * PROVENANCE_BOUND:.0f}%"
    )


def test_full_stack_overhead_below_bound():
    m = measure_robust()
    assert m["full_s"] <= m["stubbed_s"] * (1.0 + FULL_BOUND), (
        f"fully-observable run (obs + provenance + logging + trace) "
        f"costs {100.0 * m['full_overhead']:.1f}% "
        f"(stubbed {m['stubbed_s']:.4f}s vs full {m['full_s']:.4f}s); "
        f"bound is {100.0 * FULL_BOUND:.0f}%"
    )


def _record_history(m: dict[str, float]) -> None:
    """Append this measurement to BENCH_obs.json (repro.history/1).

    One extra instrumented run supplies the per-stage latency summary;
    the overhead ratios travel in the entry's ``meta``.
    """
    from pathlib import Path

    from repro import obs
    from repro.obs import history
    from repro.obs import provenance as prov

    obs.reset()
    prov.enable()
    try:
        _workload()
        snapshot = obs.snapshot()
    finally:
        prov.disable()
        prov.reset()
        obs.disable()
        obs.reset()
    path = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    history.append_run(
        path, snapshot, label="bench_overhead",
        meta={k: round(v, 6) for k, v in m.items()},
    )
    print(f"recorded overhead run in {path.name}")


def main() -> int:
    m = measure_robust()
    print(f"stubbed  (no probes):          {m['stubbed_s']:.4f}s")
    print(f"disabled (real probes off):    {m['disabled_s']:.4f}s")
    print(f"enabled  (obs + provenance):   {m['enabled_s']:.4f}s")
    print(f"full     (+ logging + trace):  {m['full_s']:.4f}s")
    print(f"disabled overhead: {100.0 * m['disabled_overhead']:+.2f}% "
          f"(bound {100.0 * OVERHEAD_BOUND:.0f}%)")
    print(f"enabled  overhead: {100.0 * m['enabled_overhead']:+.2f}% "
          f"(bound {100.0 * PROVENANCE_BOUND:.0f}%)")
    print(f"full     overhead: {100.0 * m['full_overhead']:+.2f}% "
          f"(bound {100.0 * FULL_BOUND:.0f}%)")
    status = 0
    if m["disabled_s"] > m["stubbed_s"] * (1.0 + OVERHEAD_BOUND):
        print("FAIL: disabled-mode instrumentation overhead exceeds the "
              "bound", file=sys.stderr)
        status = 1
    if m["enabled_s"] > m["stubbed_s"] * (1.0 + PROVENANCE_BOUND):
        print("FAIL: provenance-enabled overhead exceeds the bound",
              file=sys.stderr)
        status = 1
    if m["full_s"] > m["stubbed_s"] * (1.0 + FULL_BOUND):
        print("FAIL: fully-observable overhead exceeds the bound",
              file=sys.stderr)
        status = 1
    if status == 0:
        print("ok: instrumentation overhead is within all bounds")
    _record_history(m)
    return status


if __name__ == "__main__":
    sys.exit(main())
