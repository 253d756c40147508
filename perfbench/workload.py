"""One workload process of the end-to-end benchmark, started by ``run.py``.

The process imports ``repro`` from the checkout's ``src``, runs one
untimed first pass (set-up), then repeats timed passes until
``--seconds`` have passed.  A pass triages every report of the workload
once, in an order shuffled by ``--seed``, through the public entry points
``repro.batch.triage_many`` and ``repro.Pipeline.repair``; every verdict
is checked against the hand-labelled ``classification`` in
``repro.suite``.

Protocol on stdout: ``{"perfbench": "ready"}`` once set-up is done, so
the parent can time it, then (unless ``--setup-only``) one
``{"perfbench": "result", ...}`` line with every figure the parent needs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import Pipeline, obs  # noqa: E402
from repro.api import InitialVerdict  # noqa: E402
import repro.batch  # noqa: E402
from repro.logic.intern import clear_intern_tables  # noqa: E402
from repro.qe.cooper import clear_qe_caches  # noqa: E402
from repro.schema import TriageVerdict  # noqa: E402
from repro.suite import BENCHMARKS  # noqa: E402

from calibration import CALIBRATION_REF_S, calibrate  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402

FIG7 = tuple(b.name for b in BENCHMARKS)
FALSE_ALARMS = tuple(b.name for b in BENCHMARKS if b.is_false_alarm)
EXPECTED = {b.name: b.classification for b in BENCHMARKS}

#: scratch space for stores; inside the checkout and ignored by git
WORK_DIR = ROOT / ".perfbench-work"


def clear_memos() -> None:
    """Drop every publicly clearable in-process memo."""
    clear_qe_caches()
    clear_intern_tables()


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                inside = str(path) == mount or \
                    str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


@dataclass
class Report:
    ok: bool
    queries: int = 0
    patches: int = 0


class TriageWorkload:
    """The 11 Figure-7 reports, one ``triage_many([name], jobs=1)`` each.

    ``store`` is ``None`` (no store), ``"fill"`` (a fresh, empty store
    every pass) or ``"warm"`` (one store, filled by the set-up pass;
    memos are kept between passes so everything replays).
    """

    names = FIG7

    def __init__(self, store: str | None, work: Path):
        self.store = store
        self.work = work
        self.cache_dir: str | None = None
        self.fills = 0

    def begin_pass(self) -> None:
        if self.store == "warm" and self.cache_dir is not None:
            return
        clear_memos()
        if self.store is not None:
            self.fills += 1
            self.cache_dir = str(self.work / f"store-{self.fills}")

    def run(self, name: str) -> Report:
        # looked up on the package at each call, so the traced run's
        # wrapper on ``triage_many`` sees it
        batch = repro.batch.triage_many([name], jobs=1,
                                        cache_dir=self.cache_dir)
        out = batch.outcomes[0]
        ok = out.error is None and not out.degraded \
            and out.classification == EXPECTED[name]
        return Report(ok, out.num_queries or 0)

    def end_pass(self) -> list[str]:
        if self.store == "fill":
            # delete the pass's store and commit the deletion before the
            # next pass: a file system that frees blocks lazily otherwise
            # slows later writes, by more with every pass deferred
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            fd = os.open(self.work, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return []


class RepairWorkload:
    """``Pipeline().repair(name)`` on the six Figure-7 false alarms.

    Each rank-1 patch is re-checked after the pass, outside the timed
    region: a fresh ``Pipeline().analyze`` of the patched source must
    return ``VERIFIED``.
    """

    names = FALSE_ALARMS

    def __init__(self, store: str | None, work: Path):
        self.store = store
        self.pending: list[tuple[str, str]] = []
        self.rechecked: dict[str, bool] = {}

    def begin_pass(self) -> None:
        clear_memos()

    def run(self, name: str) -> Report:
        result = Pipeline().repair(name)
        best = result.best
        ok = result.verdict is TriageVerdict.FALSE_ALARM \
            and best is not None and best.verified
        if ok:
            self.pending.append((name, best.patched_source))
        # the early already-clean, real-bug and out-of-budget returns
        # carry no query count
        return Report(ok, result.num_queries or 0, result.verified_count)

    def end_pass(self) -> list[str]:
        failed = []
        for name, source in self.pending:
            if source not in self.rechecked:
                verdict = Pipeline().analyze(source).verdict
                self.rechecked[source] = verdict is InitialVerdict.VERIFIED
            if not self.rechecked[source]:
                failed.append(name)
        self.pending.clear()
        return failed


WORKLOADS = {
    "fig7-cold": (TriageWorkload, None),
    "fig7-fill": (TriageWorkload, "fill"),
    "fig7-warm": (TriageWorkload, "warm"),
    "repair-cold": (RepairWorkload, None),
}


@dataclass
class Pass:
    wall_s: float
    report_s: list[float]
    failed: list[str]
    queries: int
    patches: int
    # report times at the reference speed (calibrated passes only)
    scaled_s: list[float] = field(default_factory=list)
    calibration_s: float = 0.0  # median ``calibrate()`` time
    layers: dict = field(default_factory=dict)


def run_pass(workload, rng: random.Random, scope=nullcontext,
             calibrated: bool = False) -> Pass:
    """One pass over the workload's reports; ``scope`` brackets exactly
    the timed region (the traced run installs its wrappers there).

    A ``calibrated`` pass times ``calibrate()`` before every report and
    after the last, and records each report's time at the reference
    speed: other load on a shared host slows the program and the loop
    alike, for seconds at a time.
    """
    order = rng.sample(workload.names, len(workload.names))
    workload.begin_pass()
    gc.collect()
    clock = time.perf_counter
    report_s, failed, queries, patches = [], [], 0, 0
    cals = [calibrate()] if calibrated else []
    with scope():
        begin = clock()
        for name in order:
            start = clock()
            try:
                report = workload.run(name)
            except Exception:  # noqa: BLE001 - a crash is a failed report
                traceback.print_exc()
                report = Report(False)
            report_s.append(clock() - start)
            if calibrated:
                cals.append(calibrate())
            if not report.ok:
                failed.append(name)
            queries += report.queries
            patches += report.patches
        wall = clock() - begin
    failed += workload.end_pass()
    for name in failed:
        print(f"perfbench: report {name} failed", file=sys.stderr)
    scaled = [
        t * 2 * CALIBRATION_REF_S / (cals[i] + cals[i + 1])
        for i, t in enumerate(report_s)
    ] if calibrated else []
    return Pass(wall, report_s, failed, queries, patches, scaled,
                statistics.median(cals) if cals else 0.0)


def report_figures(times: list[list[float]]) -> dict:
    """``reports_per_s``, ``report_p50_ms`` and ``report_p90_ms`` from
    the report times of each pass: each a median over the passes of that
    pass's figure (percentiles interpolated between order statistics)."""
    def decile(pass_times: list[float], k: int) -> float:
        return statistics.quantiles(pass_times, n=10,
                                    method="inclusive")[k - 1]

    return {
        "reports_per_s": len(times[0]) / statistics.median(
            sum(t) for t in times),
        "report_p50_ms": 1e3 * statistics.median(decile(t, 5)
                                                 for t in times),
        "report_p90_ms": 1e3 * statistics.median(decile(t, 9)
                                                 for t in times),
    }


def end_to_end(passes: list[Pass]) -> dict:
    """End-to-end figures of calibrated passes, from report times at the
    reference speed, and the same figures from raw wall times."""
    return dict(
        report_figures([p.scaled_s for p in passes]),
        oracle_queries=statistics.median(p.queries for p in passes),
        calibration_ms=1e3 * statistics.median(p.calibration_s
                                               for p in passes),
        raw=report_figures([p.report_s for p in passes]),
    )


@contextmanager
def traced(tracer: LayerTracer):
    """Wrappers on and ``repro.obs`` counting from zero, for one pass."""
    tracer.reset()
    obs.reset()
    obs.enable()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        obs.disable()


def layer_figures(tracer: LayerTracer, wall_s: float) -> dict:
    """The per-layer figures of one traced pass."""
    counters = obs.snapshot()["counters"]
    figures = {}
    for layer in LAYERS:
        figures[f"{layer}.self_s"] = tracer.self_s[layer]
        figures[f"{layer}.calls"] = tracer.calls[layer]
    # memo tiers: counter prefix -> metric prefix
    for tier, name in (("qe.elim", "qe.elim"),
                       ("qe.clause_sat", "qe.clause_sat"),
                       ("smt.is_sat", "smt.is_sat"),
                       ("cache.store", "cache")):
        hits = counters.get(f"{tier}.hit", 0)
        lookups = hits + counters.get(f"{tier}.miss", 0)
        figures[f"{name}.lookups"] = lookups
        figures[f"{name}.misses"] = lookups - hits
        figures[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
    for counter in ("msa.candidates", "sat.conflicts", "repair.candidates",
                    "repair.plans"):
        figures[counter] = counters.get(counter, 0)
    # a candidate condition may be placed more than one way; each plan
    # is one patch attempt
    plans = figures["repair.plans"]
    figures["repair.verified_ratio"] = \
        counters.get("repair.verified", 0) / plans if plans else 0.0
    figures["trace.untraced_frac"] = (wall_s - tracer.covered_s()) / wall_s
    return figures


def measure(workload, rng, seconds: float, trace: bool) -> dict:
    """Timed passes until ``seconds`` have passed.  The traced run
    alternates untraced and traced passes, so both see the same state."""
    tracer = LayerTracer() if trace else None
    plain: list[Pass] = []
    with_trace: list[Pass] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload, rng, calibrated=not trace))
        if trace:
            p = run_pass(workload, rng, lambda: traced(tracer))
            p.layers = layer_figures(tracer, p.wall_s)
            with_trace.append(p)
        if time.perf_counter() - start >= seconds:
            break
    passes = plain + with_trace
    result = {
        "passes": len(plain),
        "report_samples": sum(len(p.report_s) for p in plain),
        "patches_verified": statistics.median(p.patches for p in plain),
        "attempted": sum(len(p.report_s) for p in passes),
        "failed": sum(len(p.failed) for p in passes),
        "end_to_end": None if trace else end_to_end(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if trace:
        layers = {
            name: statistics.median(p.layers[name] for p in with_trace)
            for name in with_trace[0].layers
        }
        layers["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in with_trace)
            / statistics.median(p.wall_s for p in plain) - 1)
        layers["repair.patches_verified"] = statistics.median(
            p.patches for p in with_trace)
        result["layers"] = layers
        result["traced_passes"] = len(with_trace)
        result["guard_failures"] = guard_failures(workload, with_trace,
                                                  layers)
    return result


#: the coverage guard: at most this share of a traced pass may fall
#: outside every layer below the entry points
MAX_UNTRACED_FRAC = 0.05


def guard_failures(workload, traced: list[Pass], layers: dict) -> list[str]:
    """Sanity guards of the traced run.  A warm pass must replay
    everything (no MSA candidate, no QE elimination miss); every other
    pass must have cleared its memos and recomputed both.  The wrappers
    must cover all but ``MAX_UNTRACED_FRAC`` of the pass."""
    failures = []
    warm = workload.store == "warm"
    for i, p in enumerate(traced):
        work = (p.layers["msa.candidates"], p.layers["qe.elim.misses"])
        if warm and any(work) or not warm and not all(work):
            failures.append(
                f"traced pass {i}: msa.candidates={work[0]}, "
                f"qe.elim misses={work[1]} on a "
                f"{'warm' if warm else 'cold'} pass")
    if layers["trace.untraced_frac"] > MAX_UNTRACED_FRAC:
        failures.append(
            f"trace.untraced_frac={layers['trace.untraced_frac']:.4f} "
            f"> {MAX_UNTRACED_FRAC}: a hot layer has no wrapper")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cls, store = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = cls(store, work)
        rng = random.Random(args.seed)
        first = run_pass(workload, rng)
        print(json.dumps({"perfbench": "ready"}), flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, rng, args.seconds, bool(args.trace))
        result["attempted"] += len(first.report_s)
        result["failed"] += len(first.failed)
        result["store_fs"] = filesystem_of(work) if store else None
        print(json.dumps({"perfbench": "result", **result}), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
