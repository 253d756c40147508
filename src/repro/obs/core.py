"""The observability engine: spans, counters, gauges, capture scopes.

The process aggregate lives in one module-level :class:`_State`.  The
design goal is *near-zero cost when disabled*: every public probe checks
a single module-global boolean first and returns immediately —

* :func:`span` hands back a shared, allocation-free null context manager,
* :func:`inc` / :func:`gauge` return before touching any dict,

so an instrumented hot loop pays one function call and one global load
per probe.  ``benchmarks/bench_overhead.py`` pins this cost below 5% of
an abduction round; :func:`stubbed` provides the "instrumentation
compiled out" baseline it compares against.

Enabled-mode data model:

* **spans** — nestable wall-clock regions (``with span("qe.cooper")``).
  Each live span gets a process-unique id and remembers its parent, so
  the event stream reconstructs the call tree exactly (and the
  provenance layer can key derivation steps to the enclosing span).
  Closing a span appends one event to each open :func:`capture` scope
  of its context, folds its duration into a per-name aggregate
  (count / total / max), and feeds a per-name duration histogram, so
  aggregates and percentiles survive even after a scope's bounded
  event list drops old events, and cover spans closed outside every
  scope, whose events nothing keeps.
* **counters** — monotone named integers (``inc("smt.is_sat.miss")``).
* **gauges** — last-write-wins named numbers.
* **histograms** — streaming value distributions (``observe("qe.blowup",
  3.5)``) with bounded reservoirs; snapshots carry p50/p95/p99.
* **events** — plain dicts, kept in a bounded ``deque`` per scope and
  exported as JSONL, Chrome trace-event JSON (:func:`export_chrome`,
  Perfetto-loadable) or Prometheus text format
  (:func:`export_prometheus`).

Snapshots are plain dicts of plain scalars, safe to pickle across the
batch driver's process boundary; :func:`merge_snapshots` sums counters
and span aggregates from many workers into one fleet-wide view.

:func:`capture` scopes telemetry to a block: it binds a fresh scope in
a :class:`contextvars.ContextVar`, and counters, gauges, span stats and
histograms recorded in that context go to the innermost scope.  On
exit the scope folds into the enclosing one, or into the process
aggregate when there is none, so concurrent ``repro serve`` jobs each
capture exactly their own activity, span events and provenance nodes.
Unscoped probes write the aggregate under the lock folds take.

The state is process-local on purpose: the batch driver's fork()ed
workers each start from the parent's (usually empty) state and ship
their snapshots home as data, never as shared memory.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, TextIO

from . import context as _context

__all__ = [
    "NULL_SPAN",
    "capture",
    "current_span_id",
    "disable",
    "enable",
    "export_chrome",
    "export_prometheus",
    "gauge",
    "hit_rate",
    "inc",
    "is_enabled",
    "merge_snapshots",
    "observe",
    "percentile",
    "percentiles",
    "reset",
    "set_span_hook",
    "snapshot",
    "span",
    "span_sequence",
    "stubbed",
]

_EVENT_BUFFER = 10_000  # span events a scope keeps

_NODE_BUFFER = 200_000  # provenance nodes a scope keeps

#: Histogram reservoirs are decimated (every other sample dropped, the
#: sampling stride doubled) once they reach this many samples, so a
#: histogram's memory stays bounded while its percentiles stay a fair
#: sketch of the whole stream.
_HIST_RESERVOIR = 2_048


class _Hist:
    """A streaming histogram: exact count/sum/min/max plus a bounded,
    stride-decimated sample reservoir for percentile estimates."""

    __slots__ = ("count", "total", "min", "max", "samples", "stride")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []
        self.stride = 1

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.count % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) >= _HIST_RESERVOIR:
                self.samples = self.samples[::2]
                self.stride *= 2

    def merge(self, other: "_Hist") -> None:
        """Fold another histogram in; the finer reservoir is thinned to
        the coarser stride first so each sample keeps its weight."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        stride = max(self.stride, other.stride)
        if stride != self.stride:
            self.samples = self.samples[::stride // self.stride]
        # in place: a long-lived aggregate is not copied per fold
        self.samples += other.samples[::stride // other.stride]
        while len(self.samples) >= _HIST_RESERVOIR:
            self.samples = self.samples[::2]
            stride *= 2
        self.stride = stride


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a sample list (q in [0, 1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _p50_p95_p99(samples: list[float]) -> tuple[float, float, float]:
    if not samples:
        return 0.0, 0.0, 0.0
    ordered, n = sorted(samples), len(samples)
    # for these three q, int(q * n + 0.5) - 1 always lies in [0, n)
    return (ordered[int(0.50 * n + 0.5) - 1],
            ordered[int(0.95 * n + 0.5) - 1],
            ordered[int(0.99 * n + 0.5) - 1])


def percentiles(samples: list[float]) -> dict[str, float]:
    """``p50``/``p95``/``p99``, each :func:`percentile`'s, from one sort."""
    p50, p95, p99 = _p50_p95_p99(samples)
    return {"p50": p50, "p95": p95, "p99": p99}


def _hist_from(snap: dict) -> _Hist:
    """A histogram back from its snapshot, samples copied (no
    ``samples`` reads as none, no ``stride`` as 1)."""
    h = _Hist()
    h.count, h.total = snap["count"], snap["total"]
    h.min, h.max = snap["min"], snap["max"]
    h.samples = list(snap.get("samples", ()))
    h.stride = snap.get("stride", 1)
    return h


def _hist_snapshot(h: _Hist) -> dict:
    p50, p95, p99 = _p50_p95_p99(h.samples)
    return {
        "count": h.count,
        "total": h.total,
        "min": h.min if h.count else 0.0,
        "max": h.max if h.count else 0.0,
        "p50": p50,
        "p95": p95,
        "p99": p99,
        "samples": list(h.samples),
        "stride": h.stride,
    }


class _Sink:
    """Counters, gauges, span stats and histograms of one scope (or, as
    the base of :class:`_State`, of the whole process)."""

    __slots__ = ("counters", "gauges", "span_stats", "hists")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        # name -> [count, total_seconds, max_seconds]
        self.span_stats: dict[str, list] = {}
        self.hists: dict[str, _Hist] = {}

    def observe(self, name: str, value: float) -> None:
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = _Hist()
        hist.add(value)

    def add_span(self, name: str, duration: float) -> None:
        stats = self.span_stats.get(name)
        if stats is None:
            self.span_stats[name] = [1, duration, duration]
        else:
            stats[0] += 1
            stats[1] += duration
            if duration > stats[2]:
                stats[2] = duration
        self.observe(name, duration)

    def absorb(self, other: "_Sink") -> None:
        """Fold a closed scope's data into this one (``other`` is
        discarded afterwards, so its histograms move over as they are)."""
        counters = self.counters
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        self.gauges.update(other.gauges)
        for name, (count, total, peak) in other.span_stats.items():
            stats = self.span_stats.get(name)
            if stats is None:
                self.span_stats[name] = [count, total, peak]
            else:
                stats[0] += count
                stats[1] += total
                stats[2] = max(stats[2], peak)
        for name, hist in other.hists.items():
            into = self.hists.get(name)
            if into is None:
                self.hists[name] = hist
            else:
                into.merge(hist)


class _Scope(_Sink):
    """A :func:`capture` scope: aggregates, span events and nodes."""

    __slots__ = ("events", "nodes", "outer", "snapshot")

    def __init__(self, outer: "_Scope | None") -> None:
        super().__init__()
        self.events: deque[dict] = deque(maxlen=_EVENT_BUFFER)
        self.nodes: deque[dict] = deque(maxlen=_NODE_BUFFER)
        self.outer = outer
        self.snapshot: dict | None = None


class _State(_Sink):
    __slots__ = ("ids", "seq", "tls")

    def __init__(self) -> None:
        super().__init__()
        # span ids come from an itertools.count — allocation is a single
        # atomic-under-the-GIL call, so the serve daemon's worker threads
        # never mint duplicate ids; ``seq`` trails the allocator so
        # span_sequence() can still peek at the clock without consuming
        self.ids = itertools.count(1)
        self.seq = 1
        # each thread nests its own spans: the stack (and therefore
        # parent/depth attribution) is thread-local so concurrent jobs
        # in the serve daemon cannot corrupt each other's nesting
        self.tls = threading.local()


_enabled = False
_state = _State()

#: The innermost open :func:`capture` scope in this context, if any.
_scope: ContextVar[_Scope | None] = ContextVar("repro.obs.scope", default=None)

#: Held by :func:`snapshot` and every read-modify-write of the process
#: aggregate: outermost scope folds and probes outside any scope.
_state_lock = threading.Lock()

#: Optional observer called with every closed span's event dict (after
#: the open scopes keep it).  The logging layer installs its slow-query
#: watcher here; anything else (test probes, future samplers) can too.
#: One global slot, None when absent — the disabled cost is one
#: load+test.
_span_hook: Callable[[dict], None] | None = None


def set_span_hook(hook: Callable[[dict], None] | None) -> None:
    """Install (or clear, with None) the span-close observer."""
    global _span_hook
    _span_hook = hook


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def enable() -> None:
    """Turn instrumentation on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off; collected data stays readable."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def reset() -> None:
    """Drop the process aggregate (counters, gauges, span stats)."""
    global _state
    _state = _State()


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

class _NullSpan:
    """Shared do-nothing span handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "attrs", "id", "parent", "_start", "_wall", "_stack")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.id = 0
        self.parent = 0
        self._start = 0.0
        self._wall = 0.0

    def set(self, **attrs: Any) -> "_Span":
        """Attach (or overwrite) attributes mid-span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        state = _state
        self.id = next(state.ids)
        state.seq = self.id + 1
        stack = getattr(state.tls, "stack", None)
        if stack is None:
            stack = state.tls.stack = []
        self._stack = stack
        self.parent = stack[-1] if stack else 0
        stack.append(self.id)
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        state = _state
        # restore nesting even when an exception unwound inner spans out
        # of order: remove this span wherever it sits in the stack, not
        # only when it is on top, so nothing downstream inherits a stale
        # parent
        stack = self._stack
        if stack:
            if stack[-1] == self.id:
                stack.pop()
            else:
                try:
                    stack.remove(self.id)
                except ValueError:
                    pass
        scope = _scope.get()
        if scope is not None:
            scope.add_span(self.name, duration)
        else:
            with _state_lock:
                state.add_span(self.name, duration)
        event = {
            "type": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "ts": self._wall,
            "dur_s": duration,
            "depth": len(stack),
        }
        ctx = _context._ctx.get()
        if ctx is not None:
            event["trace"] = ctx.trace_id
        if self.attrs:
            event["attrs"] = self.attrs
        if exc_type is not None:
            event["error"] = exc_type.__name__
        while scope is not None:
            scope.events.append(event)
            scope = scope.outer
        hook = _span_hook
        if hook is not None:
            try:
                hook(event)
            except Exception:
                pass  # an observer must never fail the observed code
        return False


def span(name: str, **attrs: Any):
    """A nestable timed region: ``with span("qe.cooper", var="x"): ...``.

    Returns the shared null span when disabled — callers should avoid
    computing expensive attribute values eagerly on hot paths.
    """
    if not _enabled:
        return NULL_SPAN
    return _Span(name, attrs)


def inc(name: str, value: int = 1) -> None:
    """Add ``value`` to the named monotone counter."""
    if not _enabled:
        return
    scope = _scope.get()
    if scope is not None:
        counters = scope.counters
        counters[name] = counters.get(name, 0) + value
        return
    # the hottest probe: acquire/release cost half of a ``with`` block
    _state_lock.acquire()
    try:
        counters = _state.counters
        counters[name] = counters.get(name, 0) + value
    finally:
        _state_lock.release()


def gauge(name: str, value: float) -> None:
    """Record the latest value of a named gauge."""
    if not _enabled:
        return
    # one dict store, atomic under the GIL: no lock needed unscoped
    (_scope.get() or _state).gauges[name] = value


def observe(name: str, value: float) -> None:
    """Feed one value into the named histogram.

    Closing spans feed their duration into the histogram of the span's
    name automatically; ``observe`` is for every other distribution
    (formula sizes, QE blowup ratios, solver-call latencies measured
    out-of-span).  Snapshots summarize each histogram as
    count/total/min/max plus p50/p95/p99.
    """
    if not _enabled:
        return
    scope = _scope.get()
    if scope is not None:
        scope.observe(name, value)
        return
    with _state_lock:
        _state.observe(name, value)


def current_span_id() -> int:
    """The id of the innermost open span (0 when none / disabled).

    Span ids are process-unique and appear in every span event as
    ``id``/``parent``, so external records (e.g. provenance nodes)
    stamped with this id can be joined back onto the span tree.  The
    stack consulted is this thread's own.
    """
    stack = getattr(_state.tls, "stack", None)
    return stack[-1] if stack else 0


def span_sequence() -> int:
    """An id no span issued so far exceeds — a monotone clock that lets
    external records order themselves against span openings."""
    return _state.seq


# ---------------------------------------------------------------------------
# reading the data out
# ---------------------------------------------------------------------------

def snapshot() -> dict:
    """The aggregate view: counters, gauges and per-span-name stats.

    Plain dicts of plain scalars — picklable, JSON-serializable,
    mergeable across processes with :func:`merge_snapshots`, and whole
    even while other threads record (it is taken under their lock).  A
    :func:`capture` scope's activity shows here once the scope exits.
    """
    with _state_lock:
        return _render(_state, _enabled)


def _render(sink: _Sink, enabled: bool) -> dict:
    return {
        "enabled": enabled,
        "counters": dict(sink.counters),
        "gauges": dict(sink.gauges),
        "spans": {
            name: {"count": s[0], "total_s": s[1], "max_s": s[2]}
            for name, s in sink.span_stats.items()
        },
        "hists": {name: _hist_snapshot(h) for name, h in sink.hists.items()},
    }


def export_chrome(destination: str | os.PathLike | TextIO,
                  source_events: list[dict]) -> dict:
    """Write the span events as Chrome trace-event JSON (Perfetto/about:
    tracing loadable).

    Each closed span becomes one complete ("ph": "X") event with
    microsecond timestamps; span start times come from the recorded wall
    clock and duration, so nesting in the viewer matches the engine's
    call structure exactly.  Events carrying a ``report`` tag (merged
    batch traces) are mapped to one thread lane per report, with
    ``thread_name`` metadata so lanes are labelled in the UI.

    ``source_events`` are a scope's events, or the merged event list of
    a batch run for a fleet-wide trace.  Returns the trace dict that was
    written.
    """
    pid = os.getpid()
    lanes: dict[str, int] = {}
    trace_events: list[dict] = []
    for event in source_events:
        if event.get("type") != "span":
            continue
        lane_key = str(event.get("report", "main"))
        tid = lanes.get(lane_key)
        if tid is None:
            tid = lanes[lane_key] = len(lanes) + 1
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": lane_key},
            })
        entry = {
            "ph": "X",
            "name": event["name"],
            "cat": "repro",
            "pid": pid,
            "tid": tid,
            "ts": (event["ts"] - event["dur_s"]) * 1e6,
            "dur": event["dur_s"] * 1e6,
        }
        args = dict(event.get("attrs", {}))
        args["span_id"] = event.get("id", 0)
        if event.get("error"):
            args["error"] = event["error"]
        entry["args"] = args
        trace_events.append(entry)
    trace = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, default=str)
    else:
        json.dump(trace, destination, default=str)
    return trace


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


def export_prometheus(destination: str | os.PathLike | TextIO | None = None,
                      snap: dict | None = None) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters become ``repro_<name>_total``, gauges ``repro_<name>``,
    span aggregates ``repro_span_seconds_{count,sum,max}{span="..."}``,
    and histograms summary-style quantile series
    ``repro_hist{name="...",quantile="0.5"}``.  ``snap`` defaults to the
    live :func:`snapshot`; pass a merged batch snapshot for fleet-wide
    metrics.  Returns the text; also writes it when ``destination`` is
    given.
    """
    if snap is None:
        snap = snapshot()
    lines: list[str] = []
    counters = snap.get("counters", {})
    for name in sorted(counters):
        metric = f"repro_{_prom_name(name)}_total"
        lines.append(f"# HELP {metric} Monotone event count for "
                     f"'{name}'.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")
    gauges = snap.get("gauges", {})
    for name in sorted(gauges):
        metric = f"repro_{_prom_name(name)}"
        lines.append(f"# HELP {metric} Last recorded value of "
                     f"'{name}'.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauges[name]}")
    spans = snap.get("spans", {})
    if spans:
        lines.append("# HELP repro_span_seconds Wall-clock totals per "
                     "span name.")
        lines.append("# TYPE repro_span_seconds summary")
        for name in sorted(spans):
            s = spans[name]
            lines.append(
                f'repro_span_seconds_count{{span="{name}"}} {s["count"]}')
            lines.append(
                f'repro_span_seconds_sum{{span="{name}"}} {s["total_s"]}')
            lines.append(
                f'repro_span_seconds_max{{span="{name}"}} {s["max_s"]}')
    hists = snap.get("hists", {})
    if hists:
        lines.append("# HELP repro_hist Streaming distribution "
                     "quantiles per histogram name.")
        lines.append("# TYPE repro_hist summary")
        for name in sorted(hists):
            h = hists[name]
            for q, key in (("0.5", "p50"), ("0.95", "p95"),
                           ("0.99", "p99")):
                lines.append(
                    f'repro_hist{{name="{name}",quantile="{q}"}} '
                    f'{h.get(key, 0.0)}'
                )
            lines.append(f'repro_hist_count{{name="{name}"}} {h["count"]}')
            lines.append(f'repro_hist_sum{{name="{name}"}} {h["total"]}')
    text = "\n".join(lines) + "\n"
    if destination is not None:
        if isinstance(destination, (str, os.PathLike)):
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            destination.write(text)
    return text


def merge_snapshots(*snaps: dict | None) -> dict:
    """Merge worker snapshots: counters, span stats and histograms sum,
    gauges keep the last non-missing value, ``enabled`` ORs.  Two
    histograms fold as :meth:`_Hist.merge` folds them in-process, so
    each observed value weighs the same whichever stride sampled it.

    Snapshots stamped with an ``attempt`` label (partial telemetry from
    a failed triage attempt) contribute their label to the merged
    ``attempts`` list, so retried/degraded reports keep per-attempt
    provenance in the fleet-wide view.

    Snapshots are plain data that no one writes to: the merge mutates
    none of its inputs, and a span or histogram entry only one of them
    has is shared with the result, not copied.
    """
    counters: dict = {}
    gauges: dict = {}
    spans: dict = {}
    hists: dict = {}
    merged: dict = {"enabled": False, "counters": counters,
                    "gauges": gauges, "spans": spans, "hists": hists}
    attempts: list[int] = []
    traces: list[str] = []
    for snap in snaps:
        if not snap:
            continue
        merged["enabled"] = merged["enabled"] or bool(snap.get("enabled"))
        if "attempt" in snap:
            attempts.append(snap["attempt"])
        attempts.extend(snap.get("attempts", ()))
        if snap.get("trace"):
            traces.append(snap["trace"])
        traces.extend(snap.get("traces", ()))
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(snap.get("gauges", {}))
        for name, stats in snap.get("spans", {}).items():
            into = spans.get(name)
            spans[name] = stats if into is None else {
                "count": into["count"] + stats["count"],
                "total_s": into["total_s"] + stats["total_s"],
                "max_s": max(into["max_s"], stats["max_s"]),
            }
        for name, h in snap.get("hists", {}).items():
            into = hists.get(name)
            if into is None:
                hists[name] = h
            else:
                folded = _hist_from(into)
                folded.merge(_hist_from(h))
                hists[name] = _hist_snapshot(folded)
    if attempts:
        merged["attempts"] = sorted(set(attempts))
    if traces:
        merged["traces"] = sorted(set(traces))
    return merged


def hit_rate(snap: dict, prefix: str) -> float | None:
    """Convenience: ``prefix.hit / (prefix.hit + prefix.miss)`` from a
    snapshot's counters; None when the pair is absent."""
    counters = snap.get("counters", {})
    hits = counters.get(f"{prefix}.hit", 0)
    misses = counters.get(f"{prefix}.miss", 0)
    total = hits + misses
    if total == 0:
        return None
    return hits / total


@contextmanager
def capture():
    """Scope: counters/gauges/spans accrued inside the block.

    Yields the scope: its ``events`` and ``nodes`` grow with the span
    events and provenance nodes recorded inside the block in this
    context (the scopes are the only place they are kept, at most
    10,000 events and 200,000 nodes each), and on exit its ``snapshot``
    holds only the block's activity (a report's gauges are the ones it
    set), which then folds into the enclosing scope or the process
    aggregate.  No-op (snapshot None, no events or nodes) while
    disabled.
    """
    if not _enabled:
        yield _Scope(None)
        return
    scope = _Scope(_scope.get())
    token = _scope.set(scope)
    try:
        yield scope
    finally:
        _scope.reset(token)
        snap = scope.snapshot = _render(scope, True)
        # report activity only: a probe that added zero leaves no entry
        snap["counters"] = {k: v for k, v in snap["counters"].items() if v}
        if scope.outer is not None:
            scope.outer.absorb(scope)
        else:
            with _state_lock:
                _state.absorb(scope)


# ---------------------------------------------------------------------------
# benchmarking support
# ---------------------------------------------------------------------------

@contextmanager
def stubbed():
    """Swap the probes for bare no-ops on the ``repro.obs`` package.

    This is the "instrumentation removed" baseline for
    ``benchmarks/bench_overhead.py``: call sites access probes through
    the package namespace (``obs.inc(...)``), so patching the package
    attributes measures what a build without any probes would cost.
    """
    import sys

    noop_inc = lambda name, value=1: None          # noqa: E731
    noop_gauge = lambda name, value: None          # noqa: E731
    noop_observe = lambda name, value: None        # noqa: E731
    noop_span = lambda name, **attrs: NULL_SPAN    # noqa: E731
    targets = [sys.modules[__name__]]
    package = sys.modules.get(__name__.rsplit(".", 1)[0])
    if package is not None:
        targets.append(package)
    saved = [(t, t.inc, t.gauge, t.observe, t.span) for t in targets]
    try:
        for t in targets:
            t.inc, t.gauge, t.observe, t.span = \
                noop_inc, noop_gauge, noop_observe, noop_span
        yield
    finally:
        for t, inc_, gauge_, observe_, span_ in saved:
            t.inc, t.gauge, t.observe, t.span = \
                inc_, gauge_, observe_, span_
