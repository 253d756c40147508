"""Command-line interface.

Subcommands::

    repro-diagnose analyze FILE            run the analysis, print (I, phi)
    repro-diagnose diagnose FILE           interactive Figure 6 session
    repro-diagnose suite [NAME]            run benchmark(s) w/ ground truth
    repro-diagnose triage [NAME...] --jobs N   batch triage across cores
    repro-diagnose triage --workers URL,URL    batch triage across a
                                               `repro serve` fleet
    repro-diagnose repair NAME             triage + synthesize verified patches
    repro-diagnose stats [NAME...]         triage w/ telemetry + stats table
    repro-diagnose explain NAME            render a report's derivation tree
    repro-diagnose trace export --format chrome|prom|jsonl --out FILE
    repro-diagnose serve --port N          run the triage HTTP daemon
    repro-diagnose userstudy [--seed N]    regenerate Figure 7

Exit codes follow the documented status contract (``repro.schema``):
0 = no real bugs, 1 = at least one real-bug verdict, 2 = usage error,
3 = degraded (a result is ``unknown resource`` or was quarantined).
``suite`` keeps its self-test semantics (1 = ground-truth mismatch)
and ``stats`` its health semantics (1 = misclassification/regression).

``analyze``, ``diagnose`` and ``triage`` accept ``--json`` to emit the
stable machine-readable schema (see docs/API.md) instead of the human
rendering, and — like ``stats`` — accept ``--trace FILE`` to enable the
observability layer and write a ``repro.trace/1`` stream.  ``explain``
runs one report with full provenance recording and prints the
derivation tree behind the verdict; ``trace export`` renders a run (or
an existing ``repro.trace/1`` file via ``--in``) as Chrome trace-event
JSON, Prometheus text, or the versioned JSONL stream; ``stats
--history`` appends the run's telemetry to ``BENCH_obs.json`` and flags
stage-latency regressions (see docs/OBSERVABILITY.md).

``triage`` and ``serve`` also accept ``--log-file FILE``,
``--log-level LEVEL`` and ``--slow-query-ms MS``: structured
``repro.log/1`` JSON logging with the run's trace context attached to
every record, plus a slow-query log for solver calls that exceed the
threshold.  Each CLI invocation mints one trace id, so a batch run's
logs, telemetry snapshots and provenance nodes all correlate.

(Equivalently: ``python -m repro ...``)
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import obs
from . import schema
from .obs import context as ocontext
from .obs import history as obs_history
from .obs import logging as olog
from .obs import provenance as prov
from .api import Pipeline, report_envelope
from .lang import SourceError
from .diagnosis import EngineConfig, InteractiveOracle, Verdict
from .limits import Limits


def _limits_from_args(args: argparse.Namespace) -> Limits | None:
    """Build the run's :class:`Limits` from the resource flags."""
    deadline = getattr(args, "deadline", None)
    max_steps = getattr(args, "max_steps", None)
    retries = getattr(args, "retries", None)
    if deadline is None and max_steps is None and retries is None:
        return None
    kwargs: dict = {"deadline": deadline, "max_steps": max_steps}
    if retries is not None:
        kwargs["retries"] = retries
    return Limits(**kwargs)


def _configure_logging(args: argparse.Namespace) -> None:
    """Honour ``--log-file/--log-level/--slow-query-ms`` (no-op when
    none is given — structured logging stays off by default)."""
    log_file = getattr(args, "log_file", None)
    log_level = getattr(args, "log_level", None)
    slow = getattr(args, "slow_query_ms", None)
    if log_file is None and log_level is None and slow is None:
        return
    olog.configure(file=log_file, level=log_level or "info",
                   slow_query_ms=slow)
    if slow is not None:
        # the slow-query watcher rides span closings, which only exist
        # while the obs layer records
        obs.enable()


#: The one-report commands, whose ``--trace`` writes the records of one
#: obs scope around the command (the batch commands write their
#: outcomes' records instead).
_SCOPED_TRACE = ("analyze", "diagnose", "repair")


@contextmanager
def _command_trace(args: argparse.Namespace) -> Iterator[None]:
    """With ``--trace FILE`` on a one-report command: record the command
    in one obs capture scope and write that scope's ``repro.trace/1``
    stream, also when a malformed source ended the command."""
    if args.command not in _SCOPED_TRACE or args.trace is None:
        yield
        return
    trace = args.trace
    obs.enable()
    with obs.capture() as scope:
        yield
    lines = prov.export_trace(trace, events=list(scope.events),
                              prov_nodes=list(scope.nodes),
                              snapshot=scope.snapshot)
    print(f"telemetry trace written to {trace} ({lines} lines)",
          file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    pipeline = Pipeline(auto_annotate=not args.no_annotate)
    outcome = pipeline.analyze(source)
    if args.json:
        print(outcome.to_json(indent=2))
    else:
        print(f"program: {outcome.program.name}")
        print(f"invariants I:      {outcome.invariants}")
        print(f"success cond phi:  {outcome.success}")
        print(f"verdict: {outcome.verdict.value}")
    return schema.exit_code([outcome.triage_verdict])


class _Banner:
    """The query-session banner, printed once: before the first
    question, or after a session that asked none."""

    def __init__(self):
        self.shown = False

    def show(self) -> None:
        if not self.shown:
            self.shown = True
            print("the analysis cannot decide; starting the query session")

    def print(self, *args) -> None:
        """:class:`InteractiveOracle`'s output: banner first."""
        self.show()
        print(*args)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    pipeline = Pipeline(
        auto_annotate=not args.no_annotate,
        config=EngineConfig(max_rounds=args.max_rounds),
    )
    banner = _Banner()
    oracle = None  # the sampling oracle
    if args.oracle == "interactive":
        oracle = InteractiveOracle(
            print_fn=print if args.json else banner.print)
    result = pipeline.diagnose(source, oracle)
    if args.json:
        print(schema.dump_json(report_envelope(result), indent=2))
    elif result.decided_by_analysis:
        print("verified outright: the report is a FALSE ALARM"
              if result.verdict is Verdict.DISCHARGED
              else "refuted outright: the program has a REAL BUG")
    else:
        banner.show()
        print()
        print(f"verdict: {result.classification.upper()} "
              f"after {result.num_queries} queries "
              f"({result.elapsed_seconds:.2f}s)")
    if args.report is not None and not result.decided_by_analysis:
        from .diagnosis import render_report

        Path(args.report).write_text(
            render_report(result, markdown=args.report.endswith(".md"))
        )
        print(f"session report written to {args.report}")
    return schema.exit_code([result.classification])


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.verbose:
        prov.enable()  # the query nodes carry each question and answer
    result = Pipeline().triage([args.name] if args.name else None, jobs=1)
    for outcome in result.outcomes:
        marker = "ok " if outcome.correct else "FAIL"
        print(f"[{marker}] {outcome.name:16s} -> "
              f"{outcome.classification:12s} ({outcome.num_queries} "
              f"queries, {outcome.elapsed_seconds:.2f}s)")
        if args.verbose:
            for node in outcome.provenance:
                if node["kind"] == "query":
                    print(f"        Q: {node['text']}")
                    print(f"        A: {node['answer']}")
    return 0 if all(o.correct for o in result.outcomes) else 1


def _batch_events(result) -> list[dict]:
    """Every outcome's span events, tagged with their report."""
    return [
        {**event, "report": outcome.name}
        for outcome in result.outcomes
        for event in outcome.events
    ]


def _batch_provenance(result) -> list[dict]:
    """Every outcome's provenance nodes, tagged with their report."""
    return [
        {**node, "report": outcome.name}
        for outcome in result.outcomes
        for node in outcome.provenance
    ]


def _write_batch_trace(result, path: str) -> int:
    """The versioned ``repro.trace/1`` stream for a batch: header, every
    outcome's span events and provenance nodes (each tagged with its
    report), then the merged cross-worker snapshot."""
    return prov.export_trace(
        path,
        events=_batch_events(result),
        prov_nodes=_batch_provenance(result),
        snapshot=result.telemetry or {},
    )


def _cache_from_args(args: argparse.Namespace) -> tuple[str | None, bool]:
    cache_dir = getattr(args, "cache_dir", None)
    incremental = getattr(args, "incremental", False)
    if incremental and cache_dir is None:
        print("error: --incremental requires --cache-dir",
              file=sys.stderr)
        raise SystemExit(2)
    return cache_dir, incremental


def _run_triage(args: argparse.Namespace):
    names = args.names or None
    cache_dir, incremental = _cache_from_args(args)
    workers = getattr(args, "workers", None)
    if workers:
        workers = [u.strip() for u in workers.split(",") if u.strip()]
        if not workers:
            print("error: --workers needs at least one URL",
                  file=sys.stderr)
            raise SystemExit(2)
    else:
        workers = None
    result = Pipeline().triage(names, jobs=args.jobs,
                               limits=_limits_from_args(args),
                               cache_dir=cache_dir,
                               incremental=incremental,
                               workers=workers)
    if args.trace is not None:
        _write_batch_trace(result, args.trace)
        print(f"telemetry trace written to {args.trace}",
              file=sys.stderr)
    return result


def _print_triage_table(result) -> None:
    for outcome in result.outcomes:
        if outcome.degraded:
            marker = "DEGR"
            detail = outcome.error or "resource limits exhausted"
            if outcome.exhausted_stage:
                detail = (f"stage {outcome.exhausted_stage}, "
                          f"{outcome.exhausted_kind or 'steps'}, "
                          f"{outcome.attempts} attempts")
        elif outcome.error is not None:
            marker = "TIME" if outcome.timed_out else "ERR "
            detail = outcome.error
        elif outcome.exhausted_stage is not None:
            marker = "TIME" if outcome.timed_out else "RSRC"
            detail = (f"stage {outcome.exhausted_stage}, "
                      f"{outcome.exhausted_kind or 'steps'}")
        else:
            marker = "ok  " if outcome.correct else "FAIL"
            detail = (f"{outcome.num_queries} queries, "
                      f"{outcome.elapsed_seconds:.2f}s")
        print(f"[{marker}] {outcome.name:16s} -> "
              f"{outcome.classification:12s} ({detail})")
    summary = (f"{result.mode} x{result.jobs}: "
               f"{len(result.outcomes)} reports in "
               f"{result.wall_seconds:.2f}s, "
               f"accuracy {100.0 * result.accuracy:.0f}%")
    if result.degraded:
        summary += f", {len(result.degraded)} degraded"
    print(summary)


def _triage_exit_code(result) -> int:
    """The documented status contract (:func:`repro.schema.exit_code`):
    3 when any result is degraded/quarantined or hit a hard error (the
    answer is incomplete), else 1 when a real-bug verdict is present,
    else 0.  Shared with the daemon's HTTP status mapping."""
    hard_errors = any(
        o.error for o in result.outcomes if not o.degraded
    )
    return schema.exit_code(
        (o.classification for o in result.outcomes),
        degraded=bool(result.degraded) or hard_errors,
    )


def _bench_health_code(result) -> int:
    """``stats`` keeps benchmarking-health semantics: exit 1 only for
    genuine misclassifications or un-quarantined errors, so the CI
    observability gate flags broken triage, not the (expected) real-bug
    verdicts in Figure 7."""
    hard_errors = any(
        o.error for o in result.outcomes if not o.degraded
    )
    return 1 if (result.failures or hard_errors) else 0


def _cmd_triage(args: argparse.Namespace) -> int:
    if args.trace is not None:
        obs.enable()
    _configure_logging(args)
    # the CLI invocation is an ingress: everything the batch does —
    # spans, logs, per-report worker telemetry — shares this trace id
    with ocontext.bind(ocontext.new_trace("cli")):
        result = _run_triage(args)
    if args.json:
        print(result.to_json(indent=2))
    else:
        _print_triage_table(result)
        if result.telemetry is not None:
            _print_hit_rates(result.telemetry)
    return _triage_exit_code(result)


def _print_hit_rates(snap: dict) -> None:
    parts = []
    for label, prefix in (("qe-elim", "qe.elim"),
                          ("qe-clause-sat", "qe.clause_sat"),
                          ("smt-is-sat", "smt.is_sat"),
                          ("store", "cache.store")):
        rate = obs.hit_rate(snap, prefix)
        if rate is not None:
            parts.append(f"{label} {100.0 * rate:.0f}%")
    if parts:
        print("cache hit rates: " + ", ".join(parts))


def _format_stats(snap: dict) -> str:
    """Render a merged telemetry snapshot as an aligned stats table."""
    lines: list[str] = []
    spans = snap.get("spans", {})
    if spans:
        lines.append("spans:")
        lines.append(f"  {'name':32s} {'count':>8s} {'total_s':>10s} "
                     f"{'mean_ms':>9s} {'max_ms':>9s}")
        for name in sorted(spans, key=lambda n: -spans[n]["total_s"]):
            s = spans[name]
            mean_ms = 1000.0 * s["total_s"] / max(1, s["count"])
            lines.append(
                f"  {name:32s} {s['count']:8d} {s['total_s']:10.3f} "
                f"{mean_ms:9.2f} {1000.0 * s['max_s']:9.2f}"
            )
    hists = snap.get("hists", {})
    if hists:
        lines.append("histograms (span names in seconds):")
        lines.append(f"  {'name':32s} {'count':>8s} {'p50':>10s} "
                     f"{'p95':>10s} {'p99':>10s} {'max':>10s}")
        for name in sorted(hists):
            h = hists[name]
            lines.append(
                f"  {name:32s} {h['count']:8d} {h.get('p50', 0.0):10.4g} "
                f"{h.get('p95', 0.0):10.4g} {h.get('p99', 0.0):10.4g} "
                f"{h.get('max', 0.0):10.4g}"
            )
    counters = snap.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:42s} {counters[name]:>10d}")
    for label, prefix in (("qe.elim", "qe.elim"),
                          ("qe.clause_sat", "qe.clause_sat"),
                          ("smt.is_sat", "smt.is_sat"),
                          ("cache.store", "cache.store")):
        rate = obs.hit_rate(snap, prefix)
        if rate is not None:
            lines.append(f"hit rate {label:33s} {100.0 * rate:9.1f}%")
    return "\n".join(lines)


def _format_cache_stats(result) -> str:
    """Intern-table sizes and persistent-store counters for ``stats``.

    The intern tables are this process's (workers keep their own); the
    store entry count reflects the shared directory, and the counts are
    the batch block's: every report's, whichever worker ran it.
    """
    from .logic.intern import intern_stats

    lines = ["intern tables (driver process):"]
    for table, entries in sorted(intern_stats().items()):
        lines.append(f"  {table:42s} {entries:>10d}")
    store = result.cache
    if store is not None:
        lines.append(f"persistent store ({store['path']}):")
        for name in ("entries", "hits", "misses", "puts", "evictions",
                     "corrupt"):
            lines.append(f"  {name:42s} {store[name]:>10d}")
    return "\n".join(lines)


def _handle_history(args: argparse.Namespace, result) -> int:
    """``stats --history``: check for regressions against the stored
    baseline, append this run, print the trajectory.  Returns the extra
    exit status (1 when ``--fail-on-regression`` fires)."""
    snap = result.telemetry or {}
    path = args.history_file
    history = obs_history.load(path)
    had_baseline = obs_history.baseline_run(history) is not None
    regressions = obs_history.check_regressions(history, snap)
    obs_history.append_run(
        path, snap, label="stats",
        meta={
            "accuracy": result.accuracy,
            "wall_seconds": result.wall_seconds,
            "jobs": result.jobs,
            "mode": result.mode,
            "reports": len(result.outcomes),
        },
    )
    print()
    print(obs_history.format_history(obs_history.load(path)))
    if not had_baseline:
        print("no stored baseline yet; this run becomes the baseline")
        return 0
    if not regressions:
        print(f"no stage p95 regressions vs baseline (threshold "
              f"{100.0 * obs_history.DEFAULT_THRESHOLD:.0f}%)")
        return 0
    for r in regressions:
        print(f"REGRESSION {r['stage']}: p95 "
              f"{1000.0 * r['baseline_p95_s']:.2f}ms -> "
              f"{1000.0 * r['current_p95_s']:.2f}ms "
              f"({100.0 * (r['ratio'] - 1.0):.0f}% slower)")
    return 1 if args.fail_on_regression else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    obs.enable()
    result = _run_triage(args)
    if args.json:
        print(json.dumps(result.telemetry, indent=2, default=str))
        return _handle_history(args, result) if args.history else 0
    _print_triage_table(result)
    print()
    print(_format_stats(result.telemetry or {}))
    print()
    print(_format_cache_stats(result))
    history_status = _handle_history(args, result) if args.history else 0
    return history_status or _bench_health_code(result)


def _cmd_explain(args: argparse.Namespace) -> int:
    """Triage one report with provenance on; print its derivation tree."""
    prov.enable()
    result = Pipeline().triage([args.name], jobs=1,
                               limits=_limits_from_args(args))
    outcome = result.outcomes[0]
    header = f"{outcome.name}: {outcome.classification}"
    if outcome.expected is not None:
        header += f" (expected: {outcome.expected})"
    print(header)
    print()
    print(prov.render_tree(_batch_events(result),
                           _batch_provenance(result),
                           report=outcome.name))
    if args.trace is not None:
        lines = _write_batch_trace(result, args.trace)
        print(f"provenance trace written to {args.trace} ({lines} lines)",
              file=sys.stderr)
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Render a traced run (or an existing ``repro.trace/1`` stream) in
    the requested exporter format."""
    if args.input is not None:
        try:
            data = prov.read_trace(args.input)
        except ValueError as exc:
            print(f"trace export: {args.input}: {exc}", file=sys.stderr)
            return schema.EXIT_USAGE
        events = data["events"]
        nodes = data["nodes"]
        snap = data["snapshot"] or {}
    else:
        prov.enable()
        result = Pipeline().triage(args.names or None, jobs=args.jobs,
                                   limits=_limits_from_args(args))
        events = _batch_events(result)
        nodes = _batch_provenance(result)
        snap = result.telemetry or {}
    if args.format == "chrome":
        doc = obs.export_chrome(args.out, source_events=events)
        detail = f"{len(doc['traceEvents'])} events"
    elif args.format == "prom":
        text = obs.export_prometheus(args.out, snap=snap)
        detail = f"{len(text.splitlines())} lines"
    else:
        lines = prov.export_trace(args.out, events=events,
                                  prov_nodes=nodes, snapshot=snap)
        detail = f"{lines} lines"
    print(f"{args.format} trace written to {args.out} ({detail})",
          file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the triage daemon until SIGTERM/SIGINT (see repro.serve)."""
    from .serve import run

    _configure_logging(args)
    return run(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        limits=_limits_from_args(args),
        max_inflight=args.max_inflight,
        workers=args.workers,
    )


def _cmd_repair(args: argparse.Namespace) -> int:
    cache_dir, _ = _cache_from_args(args)
    target = args.name
    path = Path(target)
    if path.suffix == ".err" or path.is_file():
        target = path.read_text()
    pipeline = Pipeline(cache_dir=cache_dir,
                        limits=_limits_from_args(args))
    result = pipeline.repair(target, max_patches=args.max_patches)
    if args.json:
        print(result.to_json(indent=2))
        return result.exit_status
    if result.program is not None:
        print(f"program: {result.program}")
    print(f"verdict: {result.verdict.value}")
    if result.note:
        print(f"note: {result.note}")
    if result.num_queries is not None:
        print(f"queries: {result.num_queries}")
    for patch in result.patches:
        status = ("verified, refuted" if patch.verified and patch.refuted
                  else "verified" if patch.verified
                  else f"rejected ({patch.rejected})" if patch.rejected
                  else "unverified")
        print()
        print(f"#{patch.rank} [{status}] {patch.kind}: "
              f"{patch.formula}  "
              f"(cost: {patch.cost[0]} vars, size {patch.cost[1]})")
        for edit in patch.edits:
            where = (f"@post({edit.label})" if edit.kind == "post"
                     else f"assume on {edit.target}"
                     if edit.kind == "assume" else "check guard")
            print(f"    {where} line {edit.line}: {edit.pred}")
    best = result.best
    if best is not None and best.diff:
        print()
        print(best.diff, end="")
    elif not result.patches and not result.already_clean \
            and result.verdict.value != "real bug":
        print("no expressible patch candidate survived verification")
    return result.exit_status


def _cmd_userstudy(args: argparse.Namespace) -> int:
    from .userstudy import format_figure7, run_user_study

    study = run_user_study(
        seed=args.seed,
        num_recruited=args.participants,
        engine_config=EngineConfig(max_rounds=8),
    )
    print(format_figure7(study))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-diagnose",
        description=(
            "Automated error diagnosis using abductive inference "
            "(PLDI 2012 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser,
                         *, json_flag: bool = True) -> None:
        if json_flag:
            p.add_argument("--json", action="store_true",
                           help="emit the stable JSON schema "
                                "(docs/API.md) instead of text")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="enable instrumentation and write a "
                            "repro.trace/1 JSONL trace to FILE")

    p_analyze = sub.add_parser("analyze", help="run the static analysis")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--no-annotate", action="store_true",
                           help="skip automatic loop-invariant inference")
    add_output_flags(p_analyze)
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_diag = sub.add_parser("diagnose", help="interactive diagnosis")
    p_diag.add_argument("file")
    p_diag.add_argument("--oracle", choices=["interactive", "sampling"],
                        default="interactive")
    p_diag.add_argument("--max-rounds", type=int, default=25)
    p_diag.add_argument("--no-annotate", action="store_true")
    p_diag.add_argument("--report", default=None, metavar="PATH",
                        help="write a session report (.md for Markdown)")
    add_output_flags(p_diag)
    p_diag.set_defaults(fn=_cmd_diagnose)

    p_suite = sub.add_parser("suite", help="run the Figure 7 benchmarks")
    p_suite.add_argument("name", nargs="?", default=None)
    p_suite.add_argument("--verbose", "-v", action="store_true")
    p_suite.set_defaults(fn=_cmd_suite)

    def add_limit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-report wall-clock deadline; reports "
                            "that run out come back 'unknown resource'")
        p.add_argument("--max-steps", type=int, default=None,
                       metavar="N",
                       help="per-stage solver step budget "
                            "(see repro.limits)")
        p.add_argument("--retries", type=int, default=None, metavar="N",
                       help="extra attempts (tightened deadline, "
                            "backoff) before quarantining a report")

    def add_log_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--log-file", default=None, metavar="FILE",
                       help="append repro.log/1 structured JSON log "
                            "records to FILE")
        p.add_argument("--log-level", default=None,
                       choices=("debug", "info", "warning", "error"),
                       help="minimum structured-log level "
                            "(default: info when logging is on)")
        p.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="log SMT/QE/MSA calls slower than MS "
                            "milliseconds as 'slow_query' warnings")

    def add_cache_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent content-addressed artifact store; "
                            "stage/SMT results are reused across runs")
        p.add_argument("--incremental", action="store_true",
                       help="serve reports whose (I, phi) digest is "
                            "unchanged from recorded verdicts "
                            "(requires --cache-dir)")

    p_triage = sub.add_parser(
        "triage", help="batch-triage benchmark reports across cores"
    )
    p_triage.add_argument("names", nargs="*", metavar="NAME",
                          help="benchmark names (default: all of Figure 7)")
    p_triage.add_argument("--jobs", "-j", type=int, default=None,
                          help="worker processes (default: CPU count)")
    p_triage.add_argument("--workers", default=None,
                          metavar="URL[,URL...]",
                          help="fan out over running `repro serve` "
                               "instances instead of local processes "
                               "(comma-separated base URLs; give the "
                               "fleet a shared --cache-dir)")
    add_limit_flags(p_triage)
    add_log_flags(p_triage)
    add_cache_flags(p_triage)
    add_output_flags(p_triage)
    p_triage.set_defaults(fn=_cmd_triage)

    p_repair = sub.add_parser(
        "repair",
        help="triage a report and synthesize ranked, verified patches",
    )
    p_repair.add_argument("name", metavar="NAME",
                          help="a Figure 7 benchmark name, or a path "
                               "to a .err source file")
    p_repair.add_argument("--max-patches", type=int, default=None,
                          metavar="N",
                          help="keep at most N ranked patches")
    add_limit_flags(p_repair)
    p_repair.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="persistent content-addressed artifact "
                               "store; stage/SMT/repair results are "
                               "reused across runs")
    add_output_flags(p_repair)
    p_repair.set_defaults(fn=_cmd_repair)

    p_stats = sub.add_parser(
        "stats",
        help="triage with instrumentation on; print the telemetry table",
    )
    p_stats.add_argument("names", nargs="*", metavar="NAME",
                         help="benchmark names (default: all of Figure 7)")
    p_stats.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes (default: CPU count)")
    p_stats.add_argument("--history", action="store_true",
                         help="append this run's telemetry to the "
                              "history file and flag p95 stage-latency "
                              "regressions vs the stored baseline")
    p_stats.add_argument("--history-file", default="BENCH_obs.json",
                         metavar="FILE",
                         help="run-history store (default: BENCH_obs.json)")
    p_stats.add_argument("--fail-on-regression", action="store_true",
                         help="exit 1 when a stage regresses beyond the "
                              "threshold")
    add_limit_flags(p_stats)
    add_cache_flags(p_stats)
    add_output_flags(p_stats)
    p_stats.set_defaults(fn=_cmd_stats)

    p_explain = sub.add_parser(
        "explain",
        help="triage one report with provenance recording and print "
             "the derivation tree behind its verdict",
    )
    p_explain.add_argument("name", metavar="NAME",
                           help="a Figure 7 benchmark name")
    add_limit_flags(p_explain)
    p_explain.add_argument("--trace", default=None, metavar="FILE",
                           help="also write the repro.trace/1 stream")
    p_explain.set_defaults(fn=_cmd_explain)

    p_trace = sub.add_parser(
        "trace", help="export telemetry traces in standard formats"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_export = trace_sub.add_parser(
        "export",
        help="run a traced triage (or convert an existing stream) and "
             "write it as Chrome trace-event JSON, Prometheus text, or "
             "repro.trace/1 JSONL",
    )
    p_export.add_argument("names", nargs="*", metavar="NAME",
                          help="benchmark names (default: all of Figure 7)")
    p_export.add_argument("--format", choices=["chrome", "prom", "jsonl"],
                          default="jsonl",
                          help="output format (default: jsonl)")
    p_export.add_argument("--out", required=True, metavar="FILE",
                          help="destination file")
    p_export.add_argument("--in", dest="input", default=None,
                          metavar="FILE",
                          help="convert an existing repro.trace/1 stream "
                               "instead of re-running the suite")
    p_export.add_argument("--jobs", "-j", type=int, default=None,
                          help="worker processes (default: CPU count)")
    add_limit_flags(p_export)
    p_export.set_defaults(fn=_cmd_trace_export)

    p_serve = sub.add_parser(
        "serve",
        help="run the triage daemon (HTTP/JSON, stdlib only); see "
             "docs/API.md for the endpoint surface",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8184,
                         help="TCP port; 0 binds an ephemeral port "
                              "(default: 8184)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent content-addressed store; "
                              "recorded verdicts are served inline and "
                              "same-judgment sources share work")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         metavar="N",
                         help="distinct jobs queued-or-running before "
                              "submissions get 429 (default: 8)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="triage worker threads (default: 2)")
    add_limit_flags(p_serve)
    add_log_flags(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_study = sub.add_parser("userstudy",
                             help="regenerate the Figure 7 user study")
    p_study.add_argument("--seed", type=int, default=2012)
    p_study.add_argument("--participants", type=int, default=56)
    p_study.set_defaults(fn=_cmd_userstudy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with _command_trace(args):
        try:
            return args.fn(args)
        except SourceError as exc:
            # a malformed program is a usage error, not a real-bug verdict
            print(f"{args.command}: {exc}", file=sys.stderr)
            return schema.EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
