"""End-to-end, layer-attributed triage benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 15 --trace 0

Workloads (all serial, one process, no extra threads):

* ``fig7-cold``   — the 11 Figure-7 reports, one ``triage_many([name],
  jobs=1)`` call each, no store; every pass first clears the QE caches
  and the intern tables.  Abduction and oracle gains show here.
* ``fig7-fill``   — the same calls writing into a fresh, empty store
  every pass: the write side of ``repro.cache``.
* ``fig7-warm``   — the same calls against a store filled during set-up,
  memos kept: every stage replays, so an abduction change predicts no
  change here while oracle and front-end gains show.
* ``repair-cold`` — ``Pipeline().repair(name)`` on the six false alarms,
  no store; each rank-1 patch is re-verified outside the timed region.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Each report is timed in wall time outside its call and scaled to a
reference machine speed by a calibration loop timed between reports
(``calibration.py``): on a shared host the raw times drift with other
load, by up to half between runs minutes apart.  ``reports_per_s`` and
the per-report ``report_p50_ms``/``report_p90_ms`` are medians over the
passes of each pass's figure.  The ``meta`` line gives the same figures
from the raw wall times under ``raw``.

``--trace 1`` alternates untraced passes with passes whose public
``src/repro`` entry points are wrapped by timers (see ``layers.py``) and
prints the per-layer metrics (medians over the traced passes), checking
the guards: a warm pass recomputes nothing (``msa.candidates`` and
``qe.elim.misses`` are 0), every other pass recomputes both, and
``trace.untraced_frac`` — the share of a pass that no layer below the
entry points (``triage_many``, ``Pipeline.repair``) accounts for — is at
most 0.05.  ``trace.overhead_frac`` is the traced over the untraced pass
wall time, minus 1.

Set-up (process start, the ``repro`` imports and the untimed first pass)
is timed by this process from outside, ``SETUPS`` times, scaled to the
reference speed by a calibration taken just before each start, and
``setup_s`` is the median.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any
wrong verdict, failed re-verification or failed guard makes ``correct``
false and the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fig7-cold", "fig7-fill", "fig7-warm", "repair-cold")

#: end-to-end metric -> unit
END_TO_END = {
    "reports_per_s": "1/s",
    "report_p50_ms": "ms",
    "report_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_queries": "count",
}

#: whole run, every child included, must end within this
RUN_LIMIT_S = 170.0

#: set-ups timed for the ``setup_s`` median
SETUPS = 3


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run_child(args, setup_only: bool, deadline: float):
    """Start one workload process; returns (raw set-up seconds, the
    speed factor measured before it, result)."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    speed = speed_factor()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            try:
                message = json.loads(line)
            except ValueError:
                sys.stderr.write(line)
                continue
            if message.get("perfbench") == "ready":
                setup_s = time.perf_counter() - start
            elif message.get("perfbench") == "result":
                result = message
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return setup_s, speed, result


def metadata(args, result: dict, raw_setups: list[float]) -> dict:
    """Everything two runs must share before their figures compare, and
    the end-to-end times unscaled."""
    figures = result["end_to_end"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "store_fs": result["store_fs"],
        "numpy": importlib.util.find_spec("numpy") is not None,
        "REPRO_LIA_BACKEND": os.environ.get("REPRO_LIA_BACKEND"),
        "passes": result["passes"],
        "traced_passes": result.get("traced_passes", 0),
        "report_samples": result["report_samples"],
        "failed_frac": result["failed"] / result["attempted"],
        "patches_verified": result["patches_verified"],
        "calibration_ms": figures and figures["calibration_ms"],
        "raw": figures and dict(figures["raw"],
                                setup_s=statistics.median(raw_setups)),
        "raw_setup_samples_s": raw_setups,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-attributed triage benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    # the traced run reports no setup_s, so it sets up once
    count = 1 if args.trace else SETUPS
    raw_setups, setups = [], []
    result = None
    try:
        for i in range(count):
            setup_s, speed, result = run_child(args, i < count - 1,
                                               deadline)
            raw_setups.append(setup_s)
            setups.append(setup_s * speed)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: (value, per_layer_unit(name))
                   for name, value in result["layers"].items()}
    else:
        figures = dict(result["end_to_end"],
                       setup_s=statistics.median(setups),
                       peak_rss_mb=result["peak_rss_mb"])
        metrics = {name: (figures[name], unit)
                   for name, unit in END_TO_END.items()}
    guards = result.get("guard_failures", [])
    correct = result["failed"] == 0 and not guards

    print(f"meta {json.dumps(metadata(args, result, raw_setups))}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:28s} {value:14.6f} {unit}")
    for failure in guards:
        print(f"guard failed: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
