"""Run-history store: per-run telemetry snapshots with regression flags.

Measured performance needs a *trajectory*, not a point: a perf
regression is invisible unless today's run can be compared against
yesterday's.  This module appends one entry
per instrumented run to a JSON file (``BENCH_obs.json`` by convention,
schema ``repro.history/1``) and flags stage-level latency regressions
against the stored baseline.

Each run entry carries:

* ``timestamp`` / ``label`` / ``meta`` — identification (meta is free
  form: accuracy, wall seconds, git rev, ...);
* ``stages`` — per-span-name latency summary (count, total_s, mean_s,
  p95_s) distilled from the snapshot's span aggregates and duration
  histograms (the core layer feeds every span's duration into a
  histogram of the span's name, so p95 is available per stage);
* ``counters`` — the snapshot's counters (cache hit rates etc.).

Regression checking compares the *current* snapshot's per-stage p95
against the latest stored run: a stage regresses when its p95 exceeds
the baseline's by more than ``threshold`` (default 20%).  Stages below
``min_seconds`` total time are ignored — microsecond-level stages are
all scheduler noise — as are stages with fewer than ``min_count``
samples on either side.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

HISTORY_SCHEMA = "repro.history/1"
DEFAULT_PATH = "BENCH_obs.json"

#: Default regression gate: p95 more than 20% above the baseline.
DEFAULT_THRESHOLD = 0.20

#: Stages cheaper than this (total seconds in the run) are never
#: flagged; their percentiles are dominated by timer noise.
MIN_TOTAL_SECONDS = 0.05
MIN_COUNT = 5


def load(path: str | os.PathLike = DEFAULT_PATH) -> dict:
    """Read a history file; a missing or empty file is an empty history."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    except FileNotFoundError:
        return {"schema": HISTORY_SCHEMA, "runs": []}
    if not text:
        return {"schema": HISTORY_SCHEMA, "runs": []}
    data = json.loads(text)
    schema = data.get("schema")
    if schema != HISTORY_SCHEMA:
        raise ValueError(f"unsupported history schema {schema!r} "
                         f"(expected {HISTORY_SCHEMA})")
    data.setdefault("runs", [])
    return data


def stage_summary(snapshot: dict | None) -> dict[str, dict]:
    """Distill a telemetry snapshot into per-stage latency summaries."""
    if not snapshot:
        return {}
    spans = snapshot.get("spans", {})
    hists = snapshot.get("hists", {})
    stages: dict[str, dict] = {}
    for name, s in spans.items():
        entry = {
            "count": s["count"],
            "total_s": s["total_s"],
            "mean_s": s["total_s"] / max(1, s["count"]),
            "max_s": s["max_s"],
        }
        hist = hists.get(name)
        if hist is not None:
            entry["p50_s"] = hist.get("p50", 0.0)
            entry["p95_s"] = hist.get("p95", 0.0)
            entry["p99_s"] = hist.get("p99", 0.0)
        stages[name] = entry
    return stages


def run_entry(snapshot: dict | None, *, label: str | None = None,
              meta: dict[str, Any] | None = None,
              timestamp: float | None = None) -> dict:
    """Build one history entry from a telemetry snapshot."""
    return {
        "timestamp": time.time() if timestamp is None else timestamp,
        "label": label,
        "meta": meta or {},
        "stages": stage_summary(snapshot),
        "counters": dict((snapshot or {}).get("counters", {})),
    }


def append_run(path: str | os.PathLike, snapshot: dict | None, *,
               label: str | None = None,
               meta: dict[str, Any] | None = None,
               timestamp: float | None = None,
               max_runs: int = 200) -> dict:
    """Append a run entry to the history file; returns the entry.

    The file keeps at most ``max_runs`` entries (oldest evicted), so the
    trajectory grows without the file growing unboundedly.
    """
    history = load(path)
    entry = run_entry(snapshot, label=label, meta=meta,
                      timestamp=timestamp)
    history["runs"].append(entry)
    if len(history["runs"]) > max_runs:
        history["runs"] = history["runs"][-max_runs:]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2, default=str)
        handle.write("\n")
    return entry


def baseline_run(history: dict) -> dict | None:
    """The baseline the next run is compared against: the latest stored
    run (None for an empty history)."""
    runs = history.get("runs", [])
    return runs[-1] if runs else None


def check_regressions(history_or_path: dict | str | os.PathLike,
                      snapshot: dict | None, *,
                      threshold: float = DEFAULT_THRESHOLD,
                      min_total_s: float = MIN_TOTAL_SECONDS,
                      min_count: int = MIN_COUNT) -> list[dict]:
    """Stage-level p95 latency regressions of ``snapshot`` vs baseline.

    Returns one dict per regressed stage: ``{"stage", "baseline_p95_s",
    "current_p95_s", "ratio"}`` (ratio is current/baseline).  An empty
    history, or a stage missing from either side, never flags.
    """
    history = (load(history_or_path)
               if isinstance(history_or_path, (str, os.PathLike))
               else history_or_path)
    base = baseline_run(history)
    if base is None:
        return []
    current = stage_summary(snapshot)
    regressions: list[dict] = []
    for stage, entry in sorted(current.items()):
        prior = base.get("stages", {}).get(stage)
        if prior is None:
            continue
        base_p95 = prior.get("p95_s")
        cur_p95 = entry.get("p95_s")
        if not base_p95 or not cur_p95:
            continue
        if (entry["total_s"] < min_total_s
                or prior["total_s"] < min_total_s):
            continue
        if entry["count"] < min_count or prior["count"] < min_count:
            continue
        if cur_p95 > base_p95 * (1.0 + threshold):
            regressions.append({
                "stage": stage,
                "baseline_p95_s": base_p95,
                "current_p95_s": cur_p95,
                "ratio": cur_p95 / base_p95,
            })
    return regressions


def format_history(history: dict, *, last: int = 10) -> str:
    """Render the most recent runs as an aligned trajectory table."""
    runs = history.get("runs", [])[-last:]
    if not runs:
        return "history: (empty)"
    lines = [f"history ({len(history.get('runs', []))} run(s), "
             f"showing last {len(runs)}):"]
    lines.append(f"  {'when':19s} {'label':20s} {'wall_s':>8s} "
                 f"{'accuracy':>8s} {'stages':>6s}")
    for run in runs:
        when = time.strftime("%Y-%m-%d %H:%M:%S",
                             time.localtime(run.get("timestamp", 0)))
        meta = run.get("meta", {})
        wall = meta.get("wall_seconds")
        acc = meta.get("accuracy")
        lines.append(
            f"  {when:19s} {str(run.get('label') or '-'):20s} "
            f"{wall if wall is not None else float('nan'):8.2f} "
            f"{(100.0 * acc if acc is not None else float('nan')):7.0f}% "
            f"{len(run.get('stages', {})):6d}"
        )
    return "\n".join(lines)
