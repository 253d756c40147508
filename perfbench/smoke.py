"""Smoke test of the benchmark itself.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` it runs one short pass with
tracing off and one with tracing on, and checks that the metrics printed
are exactly the ``end_to_end`` (resp. ``per_layer``) metrics of
``BENCHMARK.json``, with the same units, and that no report failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(spec: dict, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{where}: no result line (exit {proc.returncode})\n"
                f"{proc.stderr[-2000:]}"]
    problems = []
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(want.keys() - got.keys()):
        problems.append(f"{where}: {kind} metric {name} not printed")
    for name in sorted(got.keys() - want.keys()):
        problems.append(f"{where}: {name} is not in BENCHMARK.json")
    for name in sorted(want.keys() & got.keys()):
        if want[name] != got[name]:
            problems.append(f"{where}: {name} printed in {got[name]}, "
                            f"BENCHMARK.json says {want[name]}")
    if result["failed"] != 0:
        problems.append(f"{where}: failed_frac = "
                        f"{result['failed']}/{result['attempted']}")
    if not result["correct"] or proc.returncode != 0:
        problems.append(f"{where}: not correct (exit {proc.returncode})\n"
                        f"{proc.stdout[-2000:]}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(spec, workload, trace)
            print(f"{workload:12s} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
