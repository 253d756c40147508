"""Experiment E8: warm-cache speedup of the persistent artifact store.

The staged pipeline persists entailment and abduction artifacts and
the analyzer's SMT verdicts in a content-addressed on-disk store
(:mod:`repro.cache`), so a second triage of the same suite
re-derives nothing heavy.  The contract pinned here: with every
in-process memo dropped between runs, a **warm** second full-suite
triage must be at least ``SPEEDUP_BOUND``x faster than the cold run
that populated the store — and must reach byte-identical verdicts.

Runs standalone (exit code 1 past the bound, for CI) or under pytest.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

SPEEDUP_BOUND = 2.0
REPEATS = 3


def _drop_memory_caches() -> None:
    """Forget every in-process memo so only the disk store can answer."""
    from repro.qe.cooper import clear_qe_caches

    clear_qe_caches()


def _verdicts(result) -> bytes:
    return json.dumps(
        [[o.name, o.classification, o.num_queries, o.rounds]
         for o in result.outcomes],
        separators=(",", ":"),
    ).encode()


def _run(cache_dir: str):
    from repro.batch import triage_many

    start = time.perf_counter()
    result = triage_many(None, jobs=1, cache_dir=cache_dir)
    return time.perf_counter() - start, result


def measure(repeats: int = REPEATS) -> dict:
    """Cold-vs-warm full-suite timings against a fresh store.

    The cold run is timed once (it populates the store); the warm side
    takes its best of ``repeats`` so scheduler noise cannot fail the
    bound spuriously.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        cold_s, cold = _run(root)
        warm_s = float("inf")
        warm = None
        for _ in range(repeats):
            _drop_memory_caches()
            elapsed, warm = _run(root)
            warm_s = min(warm_s, elapsed)
        return {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s,
            "identical": _verdicts(cold) == _verdicts(warm),
            "accuracy": cold.accuracy,
        }


def test_warm_run_is_at_least_twice_as_fast():
    m = measure()
    assert m["identical"], "warm verdicts diverged from the cold run"
    assert m["accuracy"] == 1.0
    assert m["speedup"] >= SPEEDUP_BOUND, (
        f"warm re-triage is only {m['speedup']:.2f}x faster "
        f"(cold {m['cold_s']:.3f}s vs warm {m['warm_s']:.3f}s); "
        f"bound is {SPEEDUP_BOUND:.1f}x"
    )


def main() -> int:
    m = measure()
    print(f"cold full-suite triage:  {m['cold_s']:.3f}s "
          f"(accuracy {100.0 * m['accuracy']:.0f}%)")
    print(f"warm full-suite triage:  {m['warm_s']:.3f}s "
          f"(best of {REPEATS})")
    print(f"speedup: {m['speedup']:.2f}x (bound {SPEEDUP_BOUND:.1f}x), "
          f"verdicts {'identical' if m['identical'] else 'DIVERGED'}")
    if not m["identical"]:
        print("FAIL: warm verdicts diverged from the cold run",
              file=sys.stderr)
        return 1
    if m["speedup"] < SPEEDUP_BOUND:
        print("FAIL: warm-cache speedup is below the bound",
              file=sys.stderr)
        return 1
    print("ok: the persistent store meets the warm-run speedup bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
