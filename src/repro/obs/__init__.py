"""Lightweight tracing and metrics for the diagnosis pipeline.

Usage, from anywhere in the package::

    from .. import obs

    obs.inc("qe.elim.miss")
    obs.observe("qe.blowup", after / before)
    with obs.span("msa.find", strategy="branch_bound"):
        ...

All probes are no-ops until :func:`enable` is called, and the disabled
fast path costs one global check per probe — see
``benchmarks/bench_overhead.py`` for the enforced bound.  :func:`snapshot` returns the aggregate
counters/gauges/span stats/histograms; :func:`capture` scopes a block's
telemetry and keeps its span events;
:func:`repro.obs.provenance.export_trace` writes a scope's records as
the versioned ``repro.trace/1`` stream for offline analysis;
:func:`export_chrome` and :func:`export_prometheus` render the same
data for Perfetto and Prometheus scrapers; :func:`merge_snapshots` combines per-worker
snapshots from the batch driver into one fleet-wide view.

The sibling modules layer on top: :mod:`.context` carries the
per-request :class:`~repro.obs.context.TraceContext` that correlates
spans, logs and provenance across threads and processes;
:mod:`.logging` emits the structured ``repro.log/1`` stream with that
context auto-attached; :mod:`.provenance` records the derivation DAG
behind each verdict (keyed to span ids); and :mod:`.history` appends
per-run snapshots to ``BENCH_obs.json`` and flags stage-latency
regressions.
"""

from .context import (
    TraceContext,
    bind,
    current,
    current_trace_id,
    from_traceparent,
    new_trace,
)
from .core import (
    NULL_SPAN,
    capture,
    current_span_id,
    disable,
    enable,
    export_chrome,
    export_prometheus,
    gauge,
    hit_rate,
    inc,
    is_enabled,
    merge_snapshots,
    observe,
    percentile,
    reset,
    set_span_hook,
    snapshot,
    span,
    span_sequence,
    stubbed,
)

__all__ = [
    "NULL_SPAN",
    "TraceContext",
    "bind",
    "capture",
    "current",
    "current_span_id",
    "current_trace_id",
    "disable",
    "enable",
    "export_chrome",
    "export_prometheus",
    "from_traceparent",
    "gauge",
    "hit_rate",
    "inc",
    "is_enabled",
    "merge_snapshots",
    "new_trace",
    "observe",
    "percentile",
    "reset",
    "set_span_hook",
    "snapshot",
    "span",
    "span_sequence",
    "stubbed",
]
